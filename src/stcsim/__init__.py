"""Space-time block codes for 2x2 MIMO: encoders, exact ML decoders, and
Monte Carlo simulation tooling."""

from .channel import (
    CHANNEL_MODELS,
    make_rng,
    sample_channel,
    sample_channels,
    sample_noise,
    snr_to_n0,
)
from .codes import (
    ALAMOUTI,
    CODE_VARIANTS,
    GOLDEN,
    GOLDEN_VARIANTS,
    AlamoutiConstants,
    GoldenConstants,
    effective_matrix,
    encode,
    encode_overlaid_alamouti,
    golden_parts,
    qr_golden_structured,
    stack_samples,
    transmit,
)
from .constellation import (
    SUPPORTED_QAM_ORDERS,
    PamAlphabet,
    QamAlphabet,
    make_qam,
    sort_alphabet_by_metric,
)
from .decoders import (
    FAST_PERMUTATIONS,
    DecodeResult,
    blast_ordering,
)
from .harness import (
    SweepConfig,
    SweepReport,
    VerificationReport,
    emit_csv,
    min_determinant_gap,
    run_sweep,
    run_verification,
)
from .matrixkit import QRFactors, qr_decompose

__version__ = "0.1.0"
