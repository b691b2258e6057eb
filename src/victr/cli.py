"""Command-line pipeline: parse -> build-graphs -> train -> compose -> fuse -> project,
and stats, which reports on the first two stages' files.

Settings come from the config file (``--config``); only ``--out-dir`` overrides
one. Each command reads the previous stage's files from the output directory,
so stages can be rerun and tested in isolation. Exit codes: 0 success,
2 input error, 3 internal invariant breach.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import binio
from . import embedding as emb
from . import fusion as fus
from . import gcn
from . import geometry as geo
from . import graphstore as gs
from . import ingest
from . import sceneparse as sp
from .config import PipelineConfig, load_config
from .errors import InvariantError

GRAPH_NAMES = ("basic",) + geo.GEOMETRIC_RELATIONS
BLOCK_FLOATS = 2**16  # floats of output rows per block of captions; see _blocks

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _require_file(path, what: str, hint: str = ""):
    """path, which must exist; what names it, with its config key if it has one."""
    if path is None:
        raise ValueError(f"no {what} configured{'; ' + hint if hint else ''}")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}{'; ' + hint if hint else ''}")
    return path


def _remove_stale(directory, suffix: str, caption_ids: set[str]) -> None:
    """Delete the <caption id><suffix> files in directory of captions not in caption_ids.

    A stage rewrites its files in place, then drops those an earlier run
    left, so later stages read only this run's outputs.
    """
    for name in os.listdir(directory):
        if name.endswith(suffix) and name[: -len(suffix)] not in caption_ids:
            os.remove(os.path.join(directory, name))


def _blocks(corpus, row_floats):
    """(lo, hi) per block of whole captions, in order, of at most BLOCK_FLOATS floats at row_floats
    per object, attribute, relation and token row (a larger caption is a block alone)."""
    starts, lo = corpus.offsets @ np.array(row_floats, dtype=np.int64), 0
    while lo < len(corpus):
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + BLOCK_FLOATS, "right")) - 1)
        yield lo, hi
        lo = hi


def _corpus_path(cfg) -> str:
    return os.path.join(cfg.out_dir, "corpus.victrs")


def _load_corpus(cfg) -> sp.Corpus:
    path = _require_file(_corpus_path(cfg), "scene-graph corpus", hint="run the parse stage first")
    corpus = sp.load_corpus(path)
    if not len(corpus):
        raise ValueError(f"{path}: no captions; the parse stage kept none")
    return corpus


def _quantifier_lexicon(cfg) -> sp.QuantifierLexicon:
    if cfg.quantifier_lexicon:
        path = _require_file(cfg.quantifier_lexicon, "quantifier lexicon")
        return sp.load_quantifier_lexicon(path, cfg.many_value, cfg.max_duplication)
    return sp.QuantifierLexicon.default(cfg.many_value, cfg.max_duplication)


def _superclass_lexicon(cfg) -> sp.SuperClassLexicon:
    if cfg.superclass_lexicon:
        return sp.load_superclass_lexicon(
            _require_file(cfg.superclass_lexicon, "super-class lexicon"))
    if cfg.instances:
        return sp.SuperClassLexicon(
            ingest.load_categories(_require_file(cfg.instances, "instances file")))
    return sp.SuperClassLexicon({})


def cmd_parse(cfg: PipelineConfig) -> int:
    _require_file(cfg.conllu, "CoNLL-U file (config key conllu)")
    _require_file(cfg.captions, "captions file (config key captions)")
    dep_graphs = ingest.load_conllu(cfg.conllu)
    image_of = ingest.load_captions(cfg.captions)
    for g in dep_graphs:
        if g.caption_id not in image_of:
            raise ValueError(
                f"caption {g.caption_id} from {cfg.conllu} missing in {cfg.captions}"
            )
        if g.image_id != image_of[g.caption_id]:
            raise ValueError(
                f"{cfg.conllu}: caption {g.caption_id}: image_id {g.image_id}, "
                f"but {cfg.captions} gives {image_of[g.caption_id]}"
            )
    qlex = _quantifier_lexicon(cfg)
    slex = _superclass_lexicon(cfg)

    parsed = [sp.parse_caption(g, qlex, slex) for g in dep_graphs]
    if cfg.caption_mode == "richest":
        by_image: dict[str, list[sp.SceneGraph]] = {}
        for sg in parsed:
            by_image.setdefault(sg.image_id, []).append(sg)
        keep = {ingest.select_richest_caption(graphs) for graphs in by_image.values()}
        parsed = [sg for sg in parsed if sg.caption_id in keep]

    sg_dir = os.path.join(cfg.out_dir, "scene_graphs")
    os.makedirs(sg_dir, exist_ok=True)
    for sg in parsed:  # an export to read; later stages read the corpus file
        binio.write_file(os.path.join(sg_dir, f"{sg.caption_id}.json"),
                         sp.scene_graph_to_json(sg).encode())
    _remove_stale(sg_dir, ".json", {sg.caption_id for sg in parsed})
    parsed.sort(key=lambda sg: ingest._id_sort_key(sg.caption_id))
    tokens = {g.caption_id: g.tokens for g in dep_graphs}
    corpus = sp.pack_corpus(parsed, ([t.surface for t in tokens[sg.caption_id]] for sg in parsed))
    sp.save_corpus(corpus, _corpus_path(cfg))
    stale = os.path.join(cfg.out_dir, "tokens.json")  # earlier versions' token file
    if os.path.exists(stale):
        os.remove(stale)
    print(
        f"parsed {len(corpus)} captions: {len(corpus.objects)} objects, "
        f"{len(corpus.relations)} relations, {len(corpus.attributes)} attributes"
    )
    return 0


def cmd_build_graphs(cfg: PipelineConfig) -> int:
    corpus = _load_corpus(cfg)
    _require_file(cfg.instances, "instances file (config key instances)",
                  hint="positional graphs need bounding boxes")
    boxes_of = ingest.load_instances(cfg.instances)
    aliases = (geo.load_alias_table(_require_file(cfg.alias_table, "alias table"))
               if cfg.alias_table else {})

    vocab = gs.build_vocabulary(corpus)
    basic = gs.compute_weights(gs.accumulate_counts(corpus, vocab))
    gs.verify_weight_sums(basic)

    matches = geo.match_objects_to_boxes(corpus, boxes_of, aliases)
    positional = gs.build_positional_graphs(corpus, vocab, matches)
    for g in positional.values():
        gs.verify_weight_sums(g)

    graph_dir = os.path.join(cfg.out_dir, "graphs")
    os.makedirs(graph_dir, exist_ok=True)
    gs.serialize_graph(basic, os.path.join(graph_dir, "basic.victrg"))
    print(f"basic: {len(vocab)} nodes, {basic.edge_count()} edges, weight sums ok")
    for name in geo.GEOMETRIC_RELATIONS:
        g = positional[name]
        gs.serialize_graph(g, os.path.join(graph_dir, f"{name}.victrg"))
        print(f"{name}: {len(vocab)} nodes, {g.edge_count()} edges, weight sums ok")
    return 0


def _load_graph(cfg, name: str) -> tuple[str, gs.RelationalGraph]:
    """The path of graphs/<name>.victrg and its graph, whose header must give
    the kind its file name says."""
    path = _require_file(os.path.join(cfg.out_dir, "graphs", f"{name}.victrg"),
                         f"{name} graph file", hint="run the build-graphs stage first")
    graph = gs.deserialize_graph(path)
    if graph.kind != name:  # later stages take a graph's kind from its file name
        raise ValueError(f"{path}: header kind {graph.kind!r} differs from the file name")
    return path, graph


def _width(cfg, name: str) -> int:
    """The configured embedding width of graph name."""
    return cfg.basic_width if name == "basic" else cfg.positional_width


def cmd_train(cfg: PipelineConfig) -> int:
    """Train a GCN on each of the seven graphs, basic first."""
    models = os.path.join(cfg.out_dir, "models")  # earlier versions' trained weights
    if os.path.isdir(models):
        _remove_stale(models, ".victrm", set())
    for name in GRAPH_NAMES:
        path, graph = _load_graph(cfg, name)
        labels, classes = gcn.object_labels(graph.vocab)
        if not labels:
            raise ValueError(f"{path}: no labeled object nodes")
        hidden = _width(cfg, name)
        a_hat = gs.normalized_adjacency(graph)
        model = gcn.init_model(len(graph.vocab), hidden, len(classes), cfg.seed)
        model, history = gcn.train(model, a_hat, labels, cfg)
        rows = gcn.extract_embeddings(model, a_hat)
        if name != "basic":  # a positional graph embeds only the nodes it links
            outside = np.ones(len(graph.vocab), dtype=bool)
            outside[graph.participants()] = False
            rows[outside] = 0.0

        for sub in ("embeddings", "loss"):
            os.makedirs(os.path.join(cfg.out_dir, sub), exist_ok=True)
        gcn.save_embeddings(
            rows, os.path.join(cfg.out_dir, "embeddings", f"{name}.victre"),
            vocab_hash=graph.vocab.content_hash(),
        )
        lines = [f"{epoch},{loss!r}\r\n" for epoch, loss in enumerate(history, start=1)]
        binio.write_file(os.path.join(cfg.out_dir, "loss", f"{name}.csv"),
                         "".join(["epoch,loss\r\n"] + lines).encode())  # csv's line ends
        acc = gcn.accuracy(model, a_hat, labels)
        print(
            f"{name}: trained {cfg.epochs} epochs (H={hidden}, mu={len(classes)}), "
            f"final loss {history[-1]:.6f}, object accuracy {acc:.3f}"
        )
    return 0


def _load_tables(cfg) -> tuple[str, emb.ComposedTables]:
    """The basic graph's path and the seven embedding tables composed over its
    vocabulary; each table must have a row per node at its graph's configured width."""
    basic_path, basic = _load_graph(cfg, "basic")
    vocab, want_hash = basic.vocab, basic.vocab.content_hash()
    rows = {}
    for name in GRAPH_NAMES:
        path = _require_file(os.path.join(cfg.out_dir, "embeddings", f"{name}.victre"),
                             f"{name} embeddings", hint="run the train stage first")
        rows[name], got_hash = gcn.load_embeddings(path)
        if rows[name].shape != (len(vocab), _width(cfg, name)):
            raise ValueError(f"{path}: {rows[name].shape[0]} rows of width {rows[name].shape[1]}, "
                             f"expected {len(vocab)} of width {_width(cfg, name)}")
        if got_hash != want_hash:
            raise ValueError(f"{path}: trained on a vocabulary other than {basic_path}'s")
    return basic_path, emb.compose_tables(vocab, rows.pop("basic"), rows)


def cmd_compose(cfg: PipelineConfig) -> int:
    """Write each caption's E_vs matrix to evs/<caption id>.victre.

    Row i of that file is object i of the caption's scene graph, whose word
    the corpus holds; no other file repeats it. Each word of the corpus must
    be a node of the basic graph, checked before the first file is written.
    Whole captions are composed in blocks (``_blocks``), each cast to float32 once.
    """
    corpus_path, corpus = _corpus_path(cfg), _load_corpus(cfg)
    basic_path, tables = _load_tables(cfg)
    try:
        gs.corpus_nodes(corpus, tables.vocab)
    except InvariantError as e:  # a corpus parsed after the graphs were built
        raise ValueError(f"{corpus_path}: {e} of {basic_path}; "
                         "run build-graphs and train again") from None
    vocab_hash = tables.vocab.content_hash()
    evs_dir = os.path.join(cfg.out_dir, "evs")
    os.makedirs(evs_dir, exist_ok=True)
    starts = corpus.offsets[:, 0]
    for lo, hi in _blocks(corpus, (tables.scene_width, 0, 0, 0)):
        rows = emb.scene_visual_semantics(corpus.select(lo, hi), tables).rows.astype("<f4")
        for cid, part in zip(corpus.caption_ids[lo:hi],
                             np.split(rows, starts[lo + 1:hi] - starts[lo])):
            gcn.save_embeddings(part, os.path.join(evs_dir, f"{cid}.victre"), vocab_hash=vocab_hash)
    _remove_stale(evs_dir, ".victre", set(corpus.caption_ids))
    print(f"composed visual semantic matrices for {len(corpus)} captions "
          f"(width {tables.scene_width})")
    return 0


def _fusion_weights(cfg, weights_path: str | None, visual_dim: int) -> np.ndarray:
    if weights_path:
        try:
            w = np.asarray(np.load(_require_file(weights_path, "fusion weight file")), float)
        except (ValueError, EOFError) as e:
            raise ValueError(f"{weights_path}: not a numeric .npy matrix ({e})") from None
        if w.shape != (cfg.text_width, visual_dim):
            raise ValueError(f"{weights_path}: fusion weights shape {w.shape}, "
                             f"expected ({cfg.text_width}, {visual_dim})")
        if not np.isfinite(w).all():
            raise ValueError(f"{weights_path}: fusion weights hold non-finite values")
        return w
    return fus.init_fusion_parameters(cfg.text_width, visual_dim, cfg.seed)


def cmd_fuse(cfg: PipelineConfig, weights_path: str | None,
             features_dir: str | None) -> int:
    """Write each caption's fused text representation to fused/<caption id>.victrf.

    A caption's token surfaces come from the parse stage's corpus file, so no
    corpus input is read again, and its E_vs matrix from evs/<caption id>.victre.
    With features_dir, the caption's text features come from
    features_dir/<caption id>.victre, one word row per token; otherwise they
    are built in, one row per distinct token. Each E_vs file must hold a row
    per object the corpus gives its caption, of the scene width the config
    gives, 2(B + 6P) + B. Whole captions are fused in blocks (``_blocks``);
    each file's bytes are those of its caption fused alone.
    """
    evs_dir = os.path.join(cfg.out_dir, "evs")
    corpus_path, corpus = _corpus_path(cfg), _load_corpus(cfg)
    caption_ids, (n_obj, _, _, lengths) = corpus.caption_ids, np.diff(corpus.offsets, axis=0).T
    evs_paths = [_require_file(os.path.join(evs_dir, f"{cid}.victre"),
                               f"E_vs file of caption {cid}", hint="run the compose stage first")
                 for cid in caption_ids]
    if not (features_dir or lengths.all()):
        raise ValueError(f"caption {caption_ids[lengths.argmin()]} has no tokens in {corpus_path}")
    visual_dim = 2 * (cfg.basic_width + 6 * cfg.positional_width) + cfg.basic_width
    w = _fusion_weights(cfg, weights_path, visual_dim)
    if not features_dir:  # built-in features and queries: one row per distinct token
        tokens, token_rows = fus.distinct_tokens(corpus.tokens)
        table = fus.builtin_text_features([corpus.strings[t] for t in tokens.tolist()],
                                          seed=cfg.seed, dim=cfg.text_width)
        queries, w = table @ w, None  # release W: the blocks reuse its memory

    fused_dir = os.path.join(cfg.out_dir, "fused")
    os.makedirs(fused_dir, exist_ok=True)
    for lo, hi in _blocks(corpus, (visual_dim, 0, 0, cfg.text_width + visual_dim)):
        vs_rows, features = [], []
        for cid, evs_path, length, n in zip(caption_ids[lo:hi], evs_paths[lo:hi],
                                            lengths[lo:hi].tolist(), n_obj[lo:hi].tolist()):
            vs_rows.append(gcn.load_embeddings(evs_path)[0])
            if vs_rows[-1].shape != (n, visual_dim):
                raise ValueError(
                    f"{evs_path}: rows of width {vs_rows[-1].shape[1]}, expected the configured "
                    f"scene width {visual_dim}, and {len(vs_rows[-1])} rows, expected the {n} "
                    f"objects of caption {cid} in {corpus_path}; run compose again")
            if features_dir:
                path = _require_file(os.path.join(features_dir, f"{cid}.victre"),
                                     f"text features for caption {cid}")
                words, sentence = fus.load_text_features(path, expect_dim=cfg.text_width)
                if len(words) != length:
                    raise ValueError(f"{path}: {len(words)} word rows, but caption {cid} has "
                                     f"{length} tokens in {corpus_path}")
                features.append((words, sentence[None], words @ w))  # rows round as alone
        if features_dir:
            words, sentences, query = map(np.concatenate, zip(*features))
        else:  # rows of table @ W: table[ids] @ W may round differently in the last bit
            rows = token_rows[corpus.offsets[lo, 3]:corpus.offsets[hi, 3]]
            words, sentences, query = table[rows], None, queries[rows]
        fus.save_fused(fus.fuse(words, sentences, query, vs_rows, lengths[lo:hi]),
                       fused_dir, caption_ids[lo:hi], cfg.text_width, visual_dim)
        del vs_rows, features, words, sentences, query  # before the next block's arrays
    _remove_stale(fused_dir, ".victrf", set(caption_ids))
    print(f"fused {len(caption_ids)} captions "
          f"(word width {cfg.text_width + visual_dim}, visual width {visual_dim})")
    return 0


def _write_svg(path, words, coords, colors):
    from xml.sax.saxutils import escape  # not at the top: it loads urllib.request, ~7 MiB
    low = coords.min(axis=0)
    span = max(float((coords.max(axis=0) - low).max()), 1e-9)
    pixels = 20 + (coords - low) * (560.0 / span)  # the wider axis spans 20 to 580
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
             'viewBox="0 0 600 600">']
    for word, (x, y), color in zip(words, pixels.tolist(), colors):
        parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>',
                  f'<text x="{x + 6:.2f}" y="{y + 4:.2f}" font-size="10">{escape(word)}</text>']
    binio.write_file(path, "\n".join(parts + ["</svg>", ""]).encode())


def cmd_project(cfg: PipelineConfig, svg: bool) -> int:
    """Write the object words' 2-d projection to projection/object.tsv and, with
    svg, a scatter coloured by super-class to projection/object.svg."""
    basic_path, tables = _load_tables(cfg)
    words, rows = emb.projection_rows(tables)
    if len(words) < 2:
        raise ValueError(f"{basic_path}: the projection needs at least 2 object words, "
                         f"got {len(words)}")
    coords = emb.pca_project(rows, out_dim=2)
    proj_dir = os.path.join(cfg.out_dir, "projection")
    os.makedirs(proj_dir, exist_ok=True)
    tsv_path = os.path.join(proj_dir, "object.tsv")
    binio.write_file(tsv_path, "".join(f"{word}\tobject\t{float(x)!r}\t{float(y)!r}\n"
                                       for word, (x, y) in zip(words, coords)).encode())
    svg_path = os.path.join(proj_dir, "object.svg")
    if svg:
        super_of = {
            w: tables.vocab.object_super_class.get(i, "other")
            for i, w in tables.vocab.words_of_kind(gs.OBJECT)
        }
        classes = sorted(set(super_of.values()) | {"other"})
        color_of = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(classes)}
        colors = [color_of[super_of[w]] for w in words]
        _write_svg(svg_path, words, coords, colors)
    elif os.path.exists(svg_path):  # an earlier run's plot of other embeddings
        os.remove(svg_path)
    print(f"projected {len(words)} object vectors to {tsv_path}")
    return 0


def cmd_stats(cfg: PipelineConfig) -> int:
    corpus_path = _corpus_path(cfg)
    graph_dir = os.path.join(cfg.out_dir, "graphs")
    if not os.path.exists(corpus_path) and not os.path.isdir(graph_dir):
        raise FileNotFoundError(
            f"nothing to report under {cfg.out_dir}; run the parse stage first"
        )
    if os.path.exists(corpus_path):
        corpus = _load_corpus(cfg)
        print(
            f"scene graphs: {len(corpus)} captions, {len(corpus.objects)} objects "
            f"({len(np.unique(corpus.objects[:, 0]))} distinct), {len(corpus.relations)} "
            f"relations, {len(corpus.attributes)} attributes"
        )
    if os.path.isdir(graph_dir):
        for name in GRAPH_NAMES:
            if not os.path.exists(os.path.join(graph_dir, f"{name}.victrg")):
                continue
            _, g = _load_graph(cfg, name)  # checks the weight sums
            print(
                f"{name} graph: {len(g.vocab)} nodes, {g.edge_count()} edges, "
                f"weight sums ok"
            )
    return 0


@functools.cache  # argparse parsers hold reference cycles: build one, not one per call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out-dir", help="artifact directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="victr",
        description="Scene-graph text representation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, run, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    stage("parse", lambda cfg, args: cmd_parse(cfg),
          help="dependency parses -> scene graph JSON")
    stage("build-graphs", lambda cfg, args: cmd_build_graphs(cfg),
          help="scene graphs -> basic + positional relational graphs")
    stage("train", lambda cfg, args: cmd_train(cfg),
          help="train a GCN on each of the seven graphs"
          ).add_argument("--graph", choices=["all"], help="all seven graphs, as by default")
    stage("compose", lambda cfg, args: cmd_compose(cfg),
          help="embeddings -> per-caption visual semantic matrices")
    p_fuse = stage("fuse", lambda cfg, args: cmd_fuse(cfg, args.weights, args.text_features),
                   help="attend text features over visual semantics")
    p_fuse.add_argument("--weights", help=".npy file with a learned fusion weight matrix")
    p_fuse.add_argument("--text-features",
                        help="directory of per-caption text feature files of a downstream model")
    stage("project", lambda cfg, args: cmd_project(cfg, args.svg),
          help="2-d principal-component projection of the object words' vectors"
          ).add_argument("--svg", action="store_true", help="also write an SVG scatter")
    stage("stats", lambda cfg, args: cmd_stats(cfg),
          help="report corpus and graph statistics")
    return parser


def _resolve_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.out_dir:
        cfg.out_dir = args.out_dir
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_resolve_config(args), args)
    except InvariantError as e:
        print(f"invariant breach: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
