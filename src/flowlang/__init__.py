"""Network flows as a discrete language, modeled by a probabilistic
suffix tree, with likelihood-based anomaly ranking and ROC evaluation."""

from .errors import CorruptModelError, DataError, FormatError, ModelVersionError
from .evaluate import EvalReport, ScoredExample, auc, evaluate, make_scored, roc_curve
from .flows import FlowRecord, Label, parse_labeled_csv, parse_zeek_conn
from .language import (
    SessionPolicy,
    Sequence,
    TokenScheme,
    Vocabulary,
    read_sequences,
    sessionize,
    tokenize,
    write_sequences,
)
from .pst import (
    ContextCounts,
    Pst,
    PstParams,
    Score,
    build_tree,
    count_contexts,
    flag_anomalies,
    load_model,
    lookup_context,
    make_tree,
    merge_counts,
    save_model,
    score_sequence,
)
from .synth import (
    GenConfig,
    MarkovSpec,
    SplitMix64,
    demo_spec_pair,
    exact_likelihood,
    generate_corpus,
)

__version__ = "0.1.0"
