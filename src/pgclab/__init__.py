"""Desk-scale lab for cloning printed binary codes.

Generate random module grids, push their renders through a simulated
print-scan channel, train dense networks to recover the original bits
from the scans, and measure how well a correlation/Hamming defender
still tells re-printed fakes from authentic prints.
"""

from .attack import (
    ARCHS,
    DEFAULT_SPLIT,
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    AttackModel,
    PairedDataset,
    baseline_thr,
    build_dataset,
    calibrate_pixel_threshold,
    calibrate_threshold,
    estimate_code,
    estimate_grey,
    load_dataset,
    save_dataset,
    split_arrays,
    train_attack,
)
from .channel import PRINTER_IDS, ChannelParams, PrinterPreset, preset, print_scan
from .codegen import (
    BINARY01,
    BYTE0_255,
    UNIT_INTERVAL,
    BlockSet,
    Geometry,
    ModuleMatrix,
    PixelImage,
    assemble_blocks,
    binarize,
    generate_module_matrix,
    ink_intensity,
    modules_from_pixels,
    render,
    split_blocks,
)
from .detector import (
    MEASURE_HAMMING,
    MEASURE_PEARSON,
    MEASURES,
    RocCurve,
    ScoreSet,
    auc,
    hamming_norm,
    pd_at_pfa,
    pearson,
    reprint_scores,
    roc,
    score_experiment,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    FormatError,
    MissingInputError,
    ParameterError,
    PgcError,
    StateError,
    UnknownIdError,
)
from .nn import (
    AdamState,
    LayerSpec,
    MlpModel,
    TrainConfig,
    backward,
    batch_loss,
    build_bn,
    build_fc,
    forward,
    gradient_check,
    init_adam,
    load_model,
    loss,
    loss_and_grads,
    optimizer_step,
    save_model,
)

__version__ = "0.1.0"
