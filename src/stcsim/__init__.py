"""Space-time block codes for 2x2 MIMO: encoders, exact ML decoders, and
Monte Carlo simulation tooling."""

from .channel import (
    CHANNEL_MODELS,
    ChannelRealization,
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
    EffectiveChannel,
    GoldenConstants,
    conjugation_flags,
    effective_channel,
    effective_channel_from_matrix,
    effective_matrix,
    encode,
    encode_golden_brv,
    encode_golden_dv,
    encode_golden_wimax,
    encode_overlaid_alamouti,
    golden_parts,
    psi_rotation,
    qr_golden_structured,
    transmit,
)
from .constellation import (
    SUPPORTED_QAM_ORDERS,
    PamAlphabet,
    QamAlphabet,
    make_qam,
    slice_pam,
    sort_alphabet_by_metric,
)
from .decoders import (
    FAST_PERMUTATIONS,
    DecodeResult,
    blast_ordering,
    decode_alamouti_fast,
    decode_exhaustive,
    decode_fast_golden,
    decode_sphere_conventional,
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
