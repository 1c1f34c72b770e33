"""Neural-network building blocks (the PyTorch ``nn`` substitute)."""
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, LayerNorm, Linear, PositionalEmbedding
from repro.nn.inference import TransformerInferenceSession
from repro.nn.attention import CausalSelfAttention, DecoderLayer, FeedForward
from repro.nn.transformer import TransformerAmplitude
from repro.nn.phase import PHASE_HIDDEN, PhaseMLP

__all__ = [
    "Module",
    "Parameter",
    "Embedding",
    "LayerNorm",
    "Linear",
    "PositionalEmbedding",
    "TransformerInferenceSession",
    "CausalSelfAttention",
    "DecoderLayer",
    "FeedForward",
    "TransformerAmplitude",
    "PhaseMLP",
    "PHASE_HIDDEN",
]
