"""Multiply-accumulate cost model for macro-space architectures.

Standard convolution costs K*K*C_in*H*W*C_out, depthwise-separable
convolution costs C_in*H*W*(K*K + C_out), pooling costs nothing. H and W
are output feature-map dimensions. All totals are exact Python integers;
only the normalized fraction is a float.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .search_space import MACRO_LAYERS, MacroArch

CONV_OPS = {"conv3x3": 3, "conv5x5": 5}
SEP_CONV_OPS = {"sep_conv3x3": 3, "sep_conv5x5": 5}
POOL_OPS = ("avg_pool", "max_pool")

DEFAULT_CHANNELS = 32
DEFAULT_INPUT_SIZE = 32
INPUT_CHANNELS = 3  # RGB input feeds the first layer


@dataclass(frozen=True)
class MacReport:
    total_mac: int
    per_layer: tuple[tuple[int, int], ...]  # (layer index, mac count)
    normalized: float  # total / most expensive architecture of the space


@dataclass(frozen=True)
class MacTable:
    """MACs of every op at every macro layer, for one geometry."""

    rows: tuple[Mapping[str, int], ...]  # per layer: op -> MACs
    layer_max: tuple[int, ...]  # per layer: its most expensive op
    space_max: int  # every layer at its most expensive op


@lru_cache(maxsize=64)
def mac_table(channels: int, input_size: int) -> MacTable:
    """The MAC table of the macro space at one geometry, built once.

    Layers 0..3 run at full resolution, 4..7 at half, 8..11 at quarter
    (stride-2 reductions at layers 4 and 8, same padding otherwise). The
    first layer reads the image, later layers the constant body width.
    Pooling keeps the channel count and costs nothing.
    """
    if channels <= 0:
        raise ValueError("channels must be positive")
    if input_size >> ((MACRO_LAYERS - 1) // 4) <= 0:
        raise ValueError("input_size must be at least 4: the last layers "
                         "run at a quarter of it")
    rows = []
    for layer in range(MACRO_LAYERS):
        size = input_size >> (layer // 4)
        c_in = INPUT_CHANNELS if layer == 0 else channels
        row = dict.fromkeys(POOL_OPS, 0)
        for op, k in CONV_OPS.items():
            row[op] = k * k * c_in * size * size * channels
        for op, k in SEP_CONV_OPS.items():
            row[op] = c_in * size * size * (k * k + channels)
        rows.append(MappingProxyType(row))
    layer_max = tuple(max(row.values()) for row in rows)
    return MacTable(rows=tuple(rows), layer_max=layer_max, space_max=sum(layer_max))


def macro_mac(arch: MacroArch, channels: int = DEFAULT_CHANNELS,
              input_size: int = DEFAULT_INPUT_SIZE) -> MacReport:
    """Per-layer and total MACs of a macro architecture.

    Skip connections and the final classifier are not counted. The
    normalized figure divides by the cost of the all-most-expensive-op
    architecture, so it lies in [0, 1] across the whole space.
    """
    table = mac_table(channels, input_size)
    per_layer = tuple((layer, row[op])
                      for layer, (row, op) in enumerate(zip(table.rows, arch.ops)))
    total = sum(mac for _, mac in per_layer)
    return MacReport(total_mac=total, per_layer=per_layer,
                     normalized=total / table.space_max)
