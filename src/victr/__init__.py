"""Visual-contextual text representations from dependency-parsed captions.

Pipeline: scene-graph extraction -> corpus relational graphs (basic +
six positional) -> 2-layer GCN node embeddings -> composed visual
semantic vectors -> attention fusion with text features.
"""
