"""Command-line pipeline: parse -> build-graphs -> train -> compose -> fuse -> project.

Each command reads the previous stage's files from the output directory,
so stages can be rerun and tested in isolation. Exit codes: 0 success,
2 input error, 3 internal invariant breach.
"""

import argparse
import csv
import os
import sys

import numpy as np

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
COMPOSE_BLOCK_ROWS = 256  # E_vs rows composed per call; see cmd_compose

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _require_file(path, what: str, hint: str = ""):
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


def _scene_graph_dir(cfg) -> str:
    return os.path.join(cfg.out_dir, "scene_graphs")


def _tokens_path(cfg) -> str:
    return os.path.join(cfg.out_dir, "tokens.json")


def _caption_ids(directory, suffix: str, what: str, stage: str) -> list[str]:
    """The caption ids of the <caption id><suffix> files in directory, in id
    order; an error names the stage that writes them if there are none."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{directory} missing; run the {stage} stage first")
    caption_ids = sorted((f[: -len(suffix)] for f in os.listdir(directory) if f.endswith(suffix)),
                         key=ingest._id_sort_key)
    if not caption_ids:
        raise FileNotFoundError(f"no {what} in {directory}; run the {stage} stage first")
    return caption_ids


def _load_scene_graphs(cfg) -> list[sp.SceneGraph]:
    """Every scene graph in id order. An object word must have one super-class
    in all of them, as parse writes them: graphstore relies on it."""
    sg_dir = _scene_graph_dir(cfg)
    graphs = []
    super_of: dict[str, str] = {}  # object word -> its super-class
    for cid in _caption_ids(sg_dir, ".json", "scene graphs", "parse"):
        path = os.path.join(sg_dir, f"{cid}.json")
        with open(path, encoding="utf-8") as f:
            try:
                sg = sp.scene_graph_from_json(f.read())
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from None
        if sg.caption_id != cid:  # later stages name their files by this id
            raise ValueError(f"{path}: caption_id {sg.caption_id!r} differs from the file name")
        for _, word, sup in sg.objects:
            if super_of.setdefault(word, sup) != sup:
                first = next(g for g in graphs + [sg] if any(w == word for _, w, _ in g.objects))
                first_path = os.path.join(sg_dir, f"{first.caption_id}.json")
                raise ValueError(f"{path}: object word {word!r} has super-class {sup!r}, "
                                 f"but {first_path} gives it {super_of[word]!r}")
        graphs.append(sg)
    return graphs


def _quantifier_lexicon(cfg) -> sp.QuantifierLexicon:
    if cfg.quantifier_lexicon:
        path = _require_file(cfg.quantifier_lexicon, "quantifier lexicon")
        return sp.load_quantifier_lexicon(path, cfg.many_value, cfg.max_duplication)
    return sp.QuantifierLexicon.default(cfg.many_value, cfg.max_duplication)


def _superclass_lexicon(cfg) -> sp.SuperClassLexicon:
    if cfg.superclass_lexicon:
        _require_file(cfg.superclass_lexicon, "super-class lexicon")
        return sp.load_superclass_lexicon(cfg.superclass_lexicon)
    if cfg.instances:
        return sp.SuperClassLexicon(
            ingest.load_categories(_require_file(cfg.instances, "instances file")))
    return sp.SuperClassLexicon({})


def cmd_parse(cfg: PipelineConfig) -> int:
    _require_file(cfg.conllu, "CoNLL-U file")
    _require_file(cfg.captions, "captions file")
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

    sg_dir = _scene_graph_dir(cfg)
    os.makedirs(sg_dir, exist_ok=True)
    n_obj = n_rel = n_attr = 0
    for sg in parsed:
        with open(os.path.join(sg_dir, f"{sg.caption_id}.json"), "w",
                  encoding="utf-8") as f:
            f.write(sp.scene_graph_to_json(sg))
        n_obj += len(sg.objects)
        n_rel += len(sg.relations)
        n_attr += len(sg.attributes)
    kept = {sg.caption_id for sg in parsed}
    _remove_stale(sg_dir, ".json", kept)
    with open(_tokens_path(cfg), "w", encoding="utf-8") as f:
        f.write(ingest.caption_tokens_json(g for g in dep_graphs if g.caption_id in kept))
    print(
        f"parsed {len(parsed)} captions: {n_obj} objects, "
        f"{n_rel} relations, {n_attr} attributes"
    )
    return 0


def cmd_build_graphs(cfg: PipelineConfig) -> int:
    corpus = _load_scene_graphs(cfg)
    _require_file(cfg.instances, "instances file",
                  hint="positional graphs need bounding boxes")
    boxes_of = ingest.load_instances(cfg.instances)
    aliases = geo.load_alias_table(cfg.alias_table) if cfg.alias_table else {}

    vocab = gs.build_vocabulary(corpus)
    basic = gs.compute_weights(gs.accumulate_counts(corpus, vocab))
    gs.verify_weight_sums(basic)

    matches = [dict(geo.match_objects_to_boxes(sg, boxes_of, aliases))
               for sg in corpus]
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


def cmd_train(cfg: PipelineConfig, graph_name: str) -> int:
    names = GRAPH_NAMES if graph_name == "all" else (graph_name,)
    for name in names:
        path = _require_file(
            os.path.join(cfg.out_dir, "graphs", f"{name}.victrg"),
            f"{name} graph file", hint="run the build-graphs stage first",
        )
        graph = gs.deserialize_graph(path)
        labels, classes = gcn.object_labels(graph.vocab)
        if not labels:
            raise ValueError(f"{name} graph has no labeled object nodes")
        hidden = cfg.basic_width if name == "basic" else cfg.positional_width
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
        with open(os.path.join(cfg.out_dir, "loss", f"{name}.csv"), "w",
                  encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(history, start=1):
                writer.writerow([epoch, repr(loss)])
        acc = gcn.accuracy(model, a_hat, labels)
        print(
            f"{name}: trained {cfg.epochs} epochs (H={hidden}, mu={len(classes)}), "
            f"final loss {history[-1]:.6f}, object accuracy {acc:.3f}"
        )
    return 0


def _load_tables(cfg):
    graph_dir = os.path.join(cfg.out_dir, "graphs")
    basic_graph = gs.deserialize_graph(
        _require_file(os.path.join(graph_dir, "basic.victrg"), "basic graph file",
                      hint="run the build-graphs stage first")
    )
    vocab = basic_graph.vocab
    want_hash = vocab.content_hash()
    emb_dir = os.path.join(cfg.out_dir, "embeddings")
    rows = {}
    for name in GRAPH_NAMES:
        rows[name], got_hash = gcn.load_embeddings(
            _require_file(os.path.join(emb_dir, f"{name}.victre"),
                          f"{name} embeddings",
                          hint=f"run the train stage with --graph {name} (or all)")
        )
        if got_hash != want_hash:
            raise ValueError(f"{name} embeddings were trained on a different vocabulary")
    return vocab, emb.compose_tables(vocab, rows.pop("basic"), rows)


def cmd_compose(cfg: PipelineConfig) -> int:
    """Write each scene graph's E_vs matrix to evs/<caption id>.victre.

    Row i of that file is object i of scene_graphs/<caption id>.json, which
    holds the object's id and word; no other file repeats them. Whole captions
    are composed in blocks of at most COMPOSE_BLOCK_ROWS rows (a larger caption
    is a block on its own), so memory stays fixed as the corpus grows.
    """
    corpus = _load_scene_graphs(cfg)
    vocab, tables = _load_tables(cfg)
    vocab_hash = vocab.content_hash()
    evs_dir = os.path.join(cfg.out_dir, "evs")
    os.makedirs(evs_dir, exist_ok=True)
    blocks, size = [[]], 0
    for sg in corpus:
        if blocks[-1] and size + len(sg.objects) > COMPOSE_BLOCK_ROWS:
            blocks.append([])
            size = 0
        blocks[-1].append(sg)
        size += len(sg.objects)
    for block in blocks:
        rows = emb.scene_visual_semantics(block, tables).rows
        ends = np.cumsum([len(sg.objects) for sg in block])[:-1]
        for sg, part in zip(block, np.split(rows, ends)):
            gcn.save_embeddings(part, os.path.join(evs_dir, f"{sg.caption_id}.victre"),
                                vocab_hash=vocab_hash)
    _remove_stale(evs_dir, ".victre", {sg.caption_id for sg in corpus})
    print(
        f"composed visual semantic matrices for {len(corpus)} captions "
        f"(width {tables.scene_width})"
    )
    return 0


def _fusion_weights(cfg, weights_path: str | None, visual_dim: int) -> np.ndarray:
    if weights_path:
        try:
            w = np.asarray(np.load(_require_file(weights_path, "fusion weight file")), float)
        except (ValueError, EOFError) as e:
            raise ValueError(f"{weights_path}: not a numeric .npy matrix ({e})") from None
        if w.shape != (cfg.text_width, visual_dim):
            raise ValueError(
                f"fusion weights shape {w.shape}, expected ({cfg.text_width}, {visual_dim})"
            )
        if not np.isfinite(w).all():
            raise ValueError(f"{weights_path}: fusion weights hold non-finite values")
        return w
    return fus.init_fusion_parameters(cfg.text_width, visual_dim, cfg.seed)


def cmd_fuse(cfg: PipelineConfig, weights_path: str | None,
             features_dir: str | None) -> int:
    """Write each E_vs file's fused text representation to fused/<caption id>.victrf.

    A caption's token surfaces come from the parse stage's tokens.json, so no
    corpus input is read again. With features_dir, the caption's text features
    come from features_dir/<caption id>.victre, one word row per token;
    otherwise they are built in, one row per distinct token.
    """
    evs_dir = os.path.join(cfg.out_dir, "evs")
    caption_ids = _caption_ids(evs_dir, ".victre", "E_vs files", "compose")
    tokens_path = _require_file(_tokens_path(cfg), "caption token file",
                                hint="run the parse stage first")
    tokens_by_caption = ingest.load_caption_tokens(tokens_path)
    for cid in caption_ids:
        if cid not in tokens_by_caption:
            raise ValueError(
                f"{tokens_path}: no record of caption {cid}, whose E_vs file is in {evs_dir}")
        if not (features_dir or tokens_by_caption[cid]):
            raise ValueError(f"caption {cid} has no tokens in {tokens_path}")
    if not features_dir:  # built-in features and queries: one row per distinct token
        tokens, token_ids = fus.distinct_tokens(tokens_by_caption[cid] for cid in caption_ids)
        table = fus.builtin_text_features(tokens, seed=cfg.seed, dim=cfg.text_width)

    fused_dir = os.path.join(cfg.out_dir, "fused")
    os.makedirs(fused_dir, exist_ok=True)
    w = None
    for i, cid in enumerate(caption_ids):
        vs_rows, _ = gcn.load_embeddings(os.path.join(evs_dir, f"{cid}.victre"))
        if w is None:  # the first caption's rows give the visual width
            visual_dim = vs_rows.shape[1]
            w = _fusion_weights(cfg, weights_path, visual_dim)
            queries = None if features_dir else table @ w
        if features_dir:
            path = _require_file(os.path.join(features_dir, f"{cid}.victre"),
                                 f"text features for caption {cid}")
            words, sentence = fus.load_text_features(path, expect_dim=cfg.text_width)
            if len(words) != len(tokens_by_caption[cid]):
                raise ValueError(f"{path}: {len(words)} word rows, but caption {cid} has "
                                 f"{len(tokens_by_caption[cid])} tokens in {tokens_path}")
            query = words @ w
        else:  # rows of table @ W: table[ids] @ W may round differently in the last bit
            words, query = table[token_ids[i]], queries[token_ids[i]]
            sentence = words.mean(axis=0)
        fused = fus.fuse(words, sentence, query, vs_rows)
        fus.save_fused(
            fused, os.path.join(fused_dir, f"{cid}.victrf"),
            caption_id=cid, text_dim=cfg.text_width, visual_dim=visual_dim,
        )
    _remove_stale(fused_dir, ".victrf", set(caption_ids))
    print(
        f"fused {len(caption_ids)} captions "
        f"(word width {cfg.text_width + visual_dim}, visual width {visual_dim})"
    )
    return 0


def _write_svg(path, words, coords, colors):
    from xml.sax.saxutils import escape  # not at the top: it loads urllib.request, ~7 MiB
    xs, ys = coords[:, 0], coords[:, 1]
    span = max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-9)
    scale = 560.0 / span

    def sx(v):
        return 20 + (float(v) - float(xs.min())) * scale

    def sy(v):
        return 20 + (float(v) - float(ys.min())) * scale

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">'
    ]
    for word, (x, y), color in zip(words, coords, colors):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{sx(x) + 6:.2f}" y="{sy(y) + 4:.2f}" font-size="10">{escape(word)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def cmd_project(cfg: PipelineConfig, kind: str, svg: bool) -> int:
    vocab, tables = _load_tables(cfg)
    words, rows = emb.projection_rows(tables, kind)
    coords = emb.pca_project(rows, out_dim=2)
    proj_dir = os.path.join(cfg.out_dir, "projection")
    os.makedirs(proj_dir, exist_ok=True)
    tsv_path = os.path.join(proj_dir, f"{kind}.tsv")
    with open(tsv_path, "w", encoding="utf-8") as f:
        for word, (x, y) in zip(words, coords):
            f.write(f"{word}\t{kind}\t{float(x)!r}\t{float(y)!r}\n")
    svg_path = os.path.join(proj_dir, f"{kind}.svg")
    if svg:
        super_of = {
            w: vocab.object_super_class.get(i, "other")
            for i, w in vocab.words_of_kind(gs.OBJECT)
        }
        classes = sorted(set(super_of.values()) | {"other"})
        color_of = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(classes)}
        colors = [color_of.get(super_of.get(w, "other"), "#333333") for w in words]
        _write_svg(svg_path, words, coords, colors)
    elif os.path.exists(svg_path):  # an earlier run's plot of other embeddings
        os.remove(svg_path)
    print(f"projected {len(words)} {kind} vectors to {tsv_path}")
    return 0


def cmd_stats(cfg: PipelineConfig) -> int:
    sg_dir = _scene_graph_dir(cfg)
    graph_dir = os.path.join(cfg.out_dir, "graphs")
    if not os.path.isdir(sg_dir) and not os.path.isdir(graph_dir):
        raise FileNotFoundError(
            f"nothing to report under {cfg.out_dir}; run the parse stage first"
        )
    if os.path.isdir(sg_dir):
        corpus = _load_scene_graphs(cfg)
        n_obj = sum(len(sg.objects) for sg in corpus)
        n_rel = sum(len(sg.relations) for sg in corpus)
        n_attr = sum(len(sg.attributes) for sg in corpus)
        words = {w for sg in corpus for _, w, _ in sg.objects}
        print(
            f"scene graphs: {len(corpus)} captions, {n_obj} objects "
            f"({len(words)} distinct), {n_rel} relations, {n_attr} attributes"
        )
    if os.path.isdir(graph_dir):
        for name in GRAPH_NAMES:
            path = os.path.join(graph_dir, f"{name}.victrg")
            if not os.path.exists(path):
                continue
            g = gs.deserialize_graph(path)  # checks the weight sums
            print(
                f"{name} graph: {len(g.vocab)} nodes, {g.edge_count()} edges, "
                f"weight sums ok"
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out-dir", help="artifact directory (default: out)")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--caption-mode", choices=["all", "richest"],
                        help="parse every caption or only the richest per image")

    parser = argparse.ArgumentParser(
        prog="victr",
        description="Scene-graph text representation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("parse", parents=[common],
                   help="dependency parses -> scene graph JSON")
    sub.add_parser("build-graphs", parents=[common],
                   help="scene graphs -> basic + positional relational graphs")
    p_train = sub.add_parser("train", parents=[common],
                             help="train a GCN on one graph (or all seven)")
    p_train.add_argument("--graph", default="basic",
                         choices=("all",) + GRAPH_NAMES)
    sub.add_parser("compose", parents=[common],
                   help="embeddings -> per-caption visual semantic matrices")
    p_fuse = sub.add_parser("fuse", parents=[common],
                            help="attend text features over visual semantics")
    p_fuse.add_argument("--weights", help=".npy file with the fusion weight matrix")
    p_fuse.add_argument("--text-features",
                        help="directory of per-caption text feature files")
    p_proj = sub.add_parser("project", parents=[common],
                            help="2-d principal-component projection of embeddings")
    p_proj.add_argument("--kind", default="object",
                        choices=["object", "relation", "attribute"],
                        help="which words to project, each kind on its own")
    p_proj.add_argument("--svg", action="store_true", help="also write an SVG scatter")
    sub.add_parser("stats", parents=[common], help="report corpus and graph statistics")
    return parser


def _resolve_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if args.seed is not None:
        cfg.seed = args.seed
    if args.caption_mode:
        cfg.caption_mode = args.caption_mode
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "parse":
            return cmd_parse(cfg)
        if args.command == "build-graphs":
            return cmd_build_graphs(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.graph)
        if args.command == "compose":
            return cmd_compose(cfg)
        if args.command == "fuse":
            return cmd_fuse(cfg, args.weights, args.text_features)
        if args.command == "project":
            return cmd_project(cfg, args.kind, args.svg)
        if args.command == "stats":
            return cmd_stats(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except InvariantError as e:
        print(f"invariant breach: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
