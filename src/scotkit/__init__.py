"""Spatial chain-of-thought toolkit: interleaved text-coordinate
instructions, constraint-aware layout planning, layout-compliance
metrics, and a desk-scale conditional flow-matching demo."""
