"""earlyflow: per-packet flow time series and early traffic classification.

Pipeline pieces: pcap parsing (pcap), flow assembly (flows), per-packet
feature extraction and dataset files (features), prefix/earliness accounting
(earliness), a small autodiff core with Fourier transforms (autodiff,
fourier), the multi-domain transformer (model), and training/evaluation
harness (training, metrics). The cli module binds them together.
"""

__version__ = "0.1.0"

from .earliness import EarlinessReport, PrefixSpec, aggregate_earliness, take_prefix
from .features import MtsSample, extract_mts, read_dataset, write_dataset
from .flows import Flow, FlowKey, FlowTable, join_labels
from .metrics import Metrics, compute_metrics
from .model import MdtConfig, MdtModel, forward, ifft_augment, md_mha
from .pcap import PacketBlock, PacketRecord, Transport, open_capture
from .training import Hyperparams, evaluate, load_external_mts, sweep, train

__all__ = [
    "EarlinessReport", "PrefixSpec", "aggregate_earliness", "take_prefix",
    "MtsSample", "extract_mts", "read_dataset", "write_dataset",
    "Flow", "FlowKey", "FlowTable", "join_labels",
    "Metrics", "compute_metrics",
    "MdtConfig", "MdtModel", "forward", "ifft_augment", "md_mha",
    "PacketBlock", "PacketRecord", "Transport", "open_capture",
    "Hyperparams", "evaluate", "load_external_mts", "sweep", "train",
    "__version__",
]
