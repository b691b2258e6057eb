"""Per-layer spans and counters, recorded by wrapping victr's public functions.

``Tracer.install`` replaces each function under every module attribute its
callers look it up by (``write_container`` and ``read_container`` are
imported by name into gcn, graphstore and fusion), so the program runs
unmodified. A span is (name, start, end, parent stage); spans stay in
memory until the run ends. Counters and sizes are taken after a span
closes, so they do not inflate its time.
"""

import time
from collections import Counter, defaultdict


# (module, function) -> span name; a name shared by several functions sums them
_SPANS = {
    ("ingest", "load_conllu"): "ingest.load_conllu",
    ("sceneparse", "expand_quantifiers"): "sceneparse.expand_quantifiers",
    ("sceneparse", "extract_scene_graph"): "sceneparse.extract_scene_graph",
    ("sceneparse", "scene_graph_to_json"): "sceneparse.scene_graph_json",
    ("sceneparse", "scene_graph_from_json"): "sceneparse.scene_graph_json",
    ("geometry", "match_objects_to_boxes"): "geometry.match_objects_to_boxes",
    ("graphstore", "build_vocabulary"): "graphstore.build_vocabulary",
    ("graphstore", "accumulate_counts"): "graphstore.accumulate_counts",
    ("graphstore", "compute_weights"): "graphstore.compute_weights",
    ("graphstore", "verify_weight_sums"): "graphstore.verify_weight_sums",
    ("graphstore", "build_positional_graphs"): "graphstore.build_positional_graphs",
    ("graphstore", "normalized_adjacency"): "graphstore.normalized_adjacency",
    ("graphstore", "serialize_graph"): "graphstore.serialize_graph",
    ("graphstore", "deserialize_graph"): "graphstore.deserialize_graph",
    ("gcn", "train"): "gcn.train",
    ("gcn", "extract_embeddings"): "gcn.extract_embeddings",
    ("gcn", "save_embeddings"): "gcn.embeddings_io",
    ("gcn", "load_embeddings"): "gcn.embeddings_io",
    ("embedding", "compose_tables"): "embedding.compose_tables",
    ("embedding", "scene_visual_semantics"): "embedding.scene_visual_semantics",
    ("fusion", "builtin_text_features"): "fusion.builtin_text_features",
    ("fusion", "fuse"): "fusion.fuse",
    ("fusion", "save_fused"): "fusion.save_fused",
}
_CONTAINER_USERS = ("binio", "gcn", "graphstore", "fusion")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent stage span)
        self.stage = None
        self.graph_kind = None
        self.reset()

    def reset(self):
        """Start a new round of counters and per-span time sums."""
        self.time = defaultdict(float)
        self.count = Counter()
        self.tokens_seen = set()

    def install(self, modules: dict) -> None:
        """modules: short name ("gcn", ...) -> imported victr module."""
        for (mod, fn), name in _SPANS.items():
            after = getattr(self, "_after_" + fn, None)
            setattr(modules[mod], fn, self._wrap(name, getattr(modules[mod], fn), after))
        for mod in _CONTAINER_USERS:
            m = modules[mod]
            m.write_container = self._wrap("binio.write", m.write_container, self._after_write)
            m.read_container = self._wrap("binio.read", m.read_container, self._after_read)

    def _wrap(self, name, fn, after):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            self.spans.append((name, start, end, self.stage))
            self.time[name] += end - start
            if after is not None:
                after(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counters, one hook per wrapped function that has any

    def _after_load_conllu(self, args, graphs, _):
        self.count["ingest.tokens"] += sum(len(g.tokens) for g in graphs)

    def _after_expand_quantifiers(self, args, g, _):
        self.count["sceneparse.expanded_tokens"] += len(g.tokens)

    def _after_extract_scene_graph(self, args, sg, _):
        self.count["sceneparse.objects"] += len(sg.objects)
        self.count["sceneparse.relations"] += len(sg.relations)
        self.count["sceneparse.attributes"] += len(sg.attributes)

    def _after_match_objects_to_boxes(self, args, matches, _):
        self.count["geometry.matched"] += len(matches)
        self.count["geometry.boxed_objects"] += len(args[0].objects)

    def _after_build_vocabulary(self, args, vocab, _):
        self.count["graphstore.vocab_nodes"] = len(vocab)

    def _after_normalized_adjacency(self, args, a_hat, _):
        self.count["graphstore.nnz"] += len(args[0].weights)
        self.count["graphstore.cells"] += a_hat.size
        self.count["gcn.adjacency_bytes"] += a_hat.nbytes

    def _after_serialize_graph(self, args, _, __):
        key = "basic" if args[0].kind == "basic" else "positional"
        self.count[f"graphstore.edges_{key}"] += args[0].edge_count()

    def _after_deserialize_graph(self, args, graph, _):
        self.graph_kind = graph.kind

    def _after_train(self, args, _, elapsed):
        model, a_hat, _labels, cfg = args[:4]
        v, h, c = a_hat.shape[0], model.hidden, model.n_classes
        key = "basic" if self.graph_kind == "basic" else "positional"
        self.time[f"gcn.epoch_{key}"] += elapsed / cfg.epochs
        self.count["gcn.epoch_flops"] += 8 * v * v * h + 6 * v * h * c

    def _after_scene_visual_semantics(self, args, vs, _):
        self.count["embedding.rows"] += vs.rows.shape[0]

    def _after_builtin_text_features(self, args, _, __):
        tokens = list(args[0])
        self.count["fusion.tokens"] += len(tokens)
        self.tokens_seen.update(tokens)

    def _after_fuse(self, args, fused, _):
        self.count["fusion.attention_cells"] += fused.attention.size

    # container bytes are payload plus the fixed framing (magic line, header
    # length, CRC); the small JSON header is left out, so no file is stat'ed

    def _after_write(self, args, _, __):
        magic, payload = args[1], args[3]
        self.count["binio.files_written"] += 1
        self.count["binio.bytes_written"] += len(payload) + len(magic) + 9

    def _after_read(self, args, result, __):
        self.count["binio.files_read"] += 1
        self.count["binio.bytes_read"] += len(result[1]) + len(args[1]) + 9

    def round_metrics(self, stage_times: dict) -> dict:
        """Per-layer figures of the round just finished: name -> (value, unit)."""
        t, c = self.time, self.count
        out = {f"cli.{stage.replace('-', '_')}_s": (v, "s") for stage, v in stage_times.items()}
        for name in sorted({n for _, n in _SPANS.items()} | {"binio.write", "binio.read"}):
            out[name + "_s"] = (t[name], "s")
        out["gcn.epoch_basic_ms"] = (1e3 * t["gcn.epoch_basic"], "ms")
        out["gcn.epoch_positional_ms"] = (1e3 * t["gcn.epoch_positional"], "ms")
        for name in ("ingest.tokens", "sceneparse.expanded_tokens", "sceneparse.objects",
                     "sceneparse.relations", "sceneparse.attributes", "graphstore.vocab_nodes",
                     "graphstore.edges_basic", "graphstore.edges_positional", "gcn.epoch_flops",
                     "embedding.rows", "fusion.tokens", "fusion.attention_cells",
                     "binio.files_written", "binio.files_read"):
            out[name] = (c[name], "flop" if name == "gcn.epoch_flops" else "count")
        out["gcn.adjacency_bytes"] = (c["gcn.adjacency_bytes"], "B")
        out["binio.bytes_written"] = (c["binio.bytes_written"], "B")
        out["binio.bytes_read"] = (c["binio.bytes_read"], "B")
        out["geometry.matched_ratio"] = (c["geometry.matched"] / max(c["geometry.boxed_objects"], 1), "ratio")
        out["graphstore.adjacency_density"] = (c["graphstore.nnz"] / max(c["graphstore.cells"], 1), "ratio")
        out["fusion.distinct_token_ratio"] = (len(self.tokens_seen) / max(c["fusion.tokens"], 1), "ratio")
        return out
