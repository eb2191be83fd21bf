"""End-to-end Seq2Seq translation: encoder + beam-search decoder.

The paper's decoder experiments assume encoder memory is available; this
module completes the pipeline (Fig. 1's full encoder-decoder architecture):
a transformer encoder over the source sentence produces the memory the
cross-attention consumes, and :meth:`Seq2SeqModel.translate` runs the whole
thing numerically.  :class:`Seq2SeqLatencyModel` composes the encoder and
decoder cost models for end-to-end serving latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..gpusim import DeviceSpec, RTX_2060
from ..runtime.base import DecoderRuntime, InferenceRuntime
from .bert import build_encoder_graph, encoder_forward
from .config import Seq2SeqConfig, TransformerConfig
from .decoder import BeamHypothesis, beam_search, build_decoder_step_graph
from .weights import (
    DecoderWeights,
    ModelWeights,
    init_decoder_weights,
    init_encoder_weights,
)


def encoder_config_for(config: Seq2SeqConfig) -> TransformerConfig:
    """Source-side encoder matching the decoder's geometry (Fig. 1)."""
    return TransformerConfig(
        name=f"{config.name}.encoder",
        num_layers=config.num_layers,
        num_heads=config.num_heads,
        head_size=config.head_size,
        intermediate_ratio=config.intermediate_ratio,
        vocab_size=config.vocab_size,
        max_position=config.max_position,
    )


@dataclass
class Seq2SeqModel:
    """A complete translation model: encoder weights + decoder weights."""

    config: Seq2SeqConfig
    encoder_weights: ModelWeights
    decoder_weights: DecoderWeights

    @classmethod
    def random_init(cls, config: Seq2SeqConfig, seed: int = 0) -> "Seq2SeqModel":
        return cls(
            config=config,
            encoder_weights=init_encoder_weights(encoder_config_for(config),
                                                 seed=seed),
            decoder_weights=init_decoder_weights(config, seed=seed + 1),
        )

    def encode(self, source_ids: np.ndarray) -> np.ndarray:
        """Encoder memory ``[batch, src_len, hidden]`` for source ids."""
        source_ids = np.asarray(source_ids)
        if source_ids.ndim != 2:
            raise ValueError(f"source_ids must be [batch, src], got {source_ids.shape}")
        return encoder_forward(
            encoder_config_for(self.config), self.encoder_weights, source_ids
        )

    def translate(
        self,
        source_ids: np.ndarray,
        max_len: Optional[int] = None,
        bos_id: int = 1,
        eos_id: int = 2,
    ) -> List[BeamHypothesis]:
        """Translate a batch of source sentences (one hypothesis each)."""
        memory = self.encode(source_ids)
        return [
            beam_search(
                self.config, self.decoder_weights, memory[i],
                bos_id=bos_id, eos_id=eos_id, max_len=max_len,
            )
            for i in range(memory.shape[0])
        ]


class Seq2SeqLatencyModel:
    """End-to-end translation latency: one encoder pass + T decode steps.

    The encoder runs once per request over the source; the decoder is the
    per-step model of :class:`repro.runtime.DecoderRuntime`.
    """

    def __init__(
        self,
        config: Seq2SeqConfig,
        chars,  # RuntimeCharacteristics
        device: DeviceSpec = RTX_2060,
        step_overhead_s: float = 0.0,
    ) -> None:
        self.config = config
        encoder_graph = build_encoder_graph(encoder_config_for(config))
        self.encoder_runtime = InferenceRuntime(encoder_graph, chars, device)
        self.decoder_runtime = DecoderRuntime(
            build_decoder_step_graph(config), chars, device,
            beam_size=config.beam_size, step_overhead_s=step_overhead_s,
        )

    def translate_latency(self, src_len: int, tgt_len: Optional[int] = None) -> float:
        """Seconds to translate one sentence of ``src_len`` tokens."""
        if src_len <= 0:
            raise ValueError(f"src_len must be positive, got {src_len}")
        target = tgt_len if tgt_len is not None else src_len
        encode_s = self.encoder_runtime.latency(1, src_len)
        decode_s = self.decoder_runtime.decode_latency(src_len, target)
        return encode_s + decode_s
