"""gesturelab: hand-gesture recognition from tracking frames and images.

The pipeline combines geometric fingertip features from hand-tracking
frames with histogram-of-oriented-gradients descriptors from rectified
sensor images, fuses them with a configurable weight, optionally
reduces dimensionality with PCA, and classifies with a one-vs-one
RBF-SVM ensemble trained by SMO.  A deterministic synthetic generator
and an experiment harness make every stage testable without hardware.
"""

from .data import (
    GestureTemplate,
    Sample,
    default_templates,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_indices,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateData,
    DegenerateHand,
    DimensionMismatch,
    GeometryError,
    GestureLabError,
    InsufficientData,
    LayoutMismatch,
    MapSizeMismatch,
    MissingFile,
    MissingMiddleFinger,
    NumericalError,
    ParseError,
    SchemaVersionMismatch,
    SingleClassData,
)
from .fusion import FusionConfig, PcaModel, fit_pca, fuse_matrix
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    ablation_table,
    build_feature_store,
    derive_seed,
    emit_report,
    fusion_sweep,
    run_experiment,
)
from .image import (
    HogParams,
    ImagePipelineConfig,
    UndistortionMap,
    binarize,
    compute_hog,
    crop_to_foreground,
    extract_image_features,
    hog_length,
    otsu_threshold,
    read_pgm,
    resize_bilinear,
    undistort,
    write_pgm,
)
from .svm import (
    KernelParams,
    MulticlassSvm,
    Preprocessing,
    classify,
    decision_table,
    grid_search,
    load_model,
    rbf_kernel_matrix,
    save_model,
    train_multiclass,
)
from .tracking import (
    FeatureMask,
    HandFrame,
    TrackingFeatures,
    compute_angle_features,
    compute_distance_features,
    compute_elevation_features,
    compute_scale,
    compute_tip_distances,
    extract_tracking_features,
    load_frame,
    project_to_palm_plane,
    save_frame,
)

__version__ = "0.1.0"
