"""Visual-contextual text representations from dependency-parsed captions.

Pipeline: scene-graph extraction -> corpus relational graphs (basic +
six positional) -> 2-layer GCN node embeddings -> composed visual
semantic vectors -> attention fusion with text features.
"""

from .embedding import (
    ComposedTables,
    VisualSemanticMatrix,
    compose_tables,
    pca_project,
    scene_visual_semantics,
)
from .errors import InvariantError
from .fusion import (
    FusedRepresentation,
    FusionParameters,
    TextFeatures,
    attend,
    builtin_text_features,
    fuse,
    victr_sentence,
    victr_word,
)
from .gcn import (
    GcnModel,
    TrainConfig,
    extract_embeddings,
    forward,
    gradient_check,
    init_model,
    masked_cross_entropy,
    train,
)
from .geometry import (
    GEOMETRIC_RELATIONS,
    BoundingBox,
    classify_geometric_relation,
    match_objects_to_boxes,
)
from .graphstore import (
    RelationalGraph,
    Vocabulary,
    accumulate_counts,
    build_positional_graphs,
    build_vocabulary,
    compute_weights,
    deserialize_graph,
    normalized_adjacency,
    serialize_graph,
    verify_weight_sums,
)
from .ingest import (
    CaptionSet,
    DependencyGraph,
    InstanceSet,
    Token,
    load_captions,
    load_conllu,
    load_instances,
    select_richest_caption,
    to_conllu,
)
from .sceneparse import (
    QuantifierLexicon,
    SceneGraph,
    SuperClassLexicon,
    assign_super_classes,
    expand_quantifiers,
    extract_scene_graph,
    parse_caption,
)

__version__ = "0.1.0"
