"""Neural-network building blocks (the PyTorch ``nn`` substitute)."""
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, LayerNorm, Linear, PositionalEmbedding
from repro.nn.inference import (
    FallbackInferenceSession,
    KVCache,
    TransformerInferenceSession,
    make_inference_session,
)
from repro.nn.attention import CausalSelfAttention, DecoderLayer, FeedForward
from repro.nn.transformer import TransformerAmplitude
from repro.nn.phase import PhaseMLP
from repro.nn.made import MADEAmplitude, NAQSMLPAmplitude

__all__ = [
    "Module",
    "Parameter",
    "Embedding",
    "LayerNorm",
    "Linear",
    "PositionalEmbedding",
    "KVCache",
    "TransformerInferenceSession",
    "FallbackInferenceSession",
    "make_inference_session",
    "CausalSelfAttention",
    "DecoderLayer",
    "FeedForward",
    "TransformerAmplitude",
    "PhaseMLP",
    "MADEAmplitude",
    "NAQSMLPAmplitude",
]
