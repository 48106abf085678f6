"""Topic-based clustering and pruned search over encrypted keyword indexes."""

from .clustering import (
    Cluster,
    ClusterSet,
    choose_centers,
    cluster_index,
    contribution,
    cooccurrence,
    centrality,
    distribute,
    read_clusters,
    relatedness,
    uniqueness,
    write_clusters,
)
from .config import CONFIG_ENV, PipelineConfig, load_config
from .crypto import (
    CipherToken,
    IdentityTokenCodec,
    KeyedTokenCodec,
    SecretKey,
    TokenCodec,
    encrypt_query,
    load_key,
    normalize_term,
    token_from_b64,
    token_to_b64,
)
from .evaluation import (
    EmbeddingTable,
    EvaluationReport,
    cluster_coherence,
    coherence_report,
    compare,
    load_embeddings,
    load_judgments,
    load_queries,
    run_benchmark,
    tsap_at_10,
)
from .index import (
    CentralIndex,
    Posting,
    TrimmedIndex,
    build_index_from_corpus,
    build_index_from_keywords,
    doc_cooccurrence,
    extract_keywords,
    index_digest,
    ingest,
    read_index,
    trim,
    write_index,
)
from .matrices import (
    KEstimate,
    LabeledMatrix,
    MatrixRole,
    build_A,
    build_C,
    build_R,
    build_S,
    estimate_k,
    matrix_pipeline,
    normalize,
    separation_factors,
)
from .search import (
    Abstract,
    SearchResult,
    build_abstracts,
    prune,
    read_abstracts,
    search,
    write_abstracts,
)

__version__ = "0.1.0"
