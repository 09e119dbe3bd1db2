"""Cross-lingual sentence-embedding distillation toolkit.

Train a compact transformer encoder for a low-resource language by
regressing onto (or ranking against) precomputed teacher embeddings of
aligned translations, then evaluate with paraphrase, semantic-similarity,
and 2-D visualization protocols. Everything is deterministic for a fixed
seed and runs on plain NumPy.
"""

from .corpus import (
    LabeledSentences,
    ParallelCorpus,
    ScoredPairs,
    load_labeled,
    load_parallel,
    load_scored_pairs,
    preprocess,
    split,
)
from .encoder import (
    Cache,
    EmbeddingBatch,
    EncoderConfig,
    EncoderParams,
    backward,
    embed,
    empty_params,
    forward,
    init_params,
)
from .errors import FormatError, ToolkitError, ValidationError
from .evaluation import (
    EvalReport,
    mean_cosine_similarity,
    paraphrase_accuracy,
    pearson,
    spearman,
    time_inference,
)
from .losses import LossResult, cosine, mnr_loss, mse_loss
from .teacher import TeacherTable, read_teacher_file, toy_teacher, write_teacher_file
from .tokenizer import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocab,
    build_vocab,
    decode,
    encode,
    encode_batch,
    load_vocab,
    save_vocab,
)
from .trainer import (
    Checkpoint,
    OptimizerState,
    TrainingConfig,
    adamw_step,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)
from .tsne import Layout2D, TsneConfig, joint_probabilities, kl_divergence, render_scatter, run_tsne

__version__ = "0.1.0"
