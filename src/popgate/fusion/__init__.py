"""Modality expert branches, learnable-standardization gating, and the
two-phase training procedure for the gated ensemble."""
