"""Review-based rating prediction with twin-tower text encoders.

Two parallel networks (CNN, GRU, or LSTM) encode a user's and an item's
aggregated review text into latent vectors, coupled by a dot-product or
factorization-machine head that predicts the rating.  Everything runs on
float64 numpy with hand-written backward passes verified against finite
differences, plus an item-item cosine CF baseline for comparison.
"""

from .baseline import (RatingMatrix, evaluate_cf, item_similarity,
                       predict_cf_with_source)
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     DeepConnError, InfeasibleSplitError, NumericFault,
                     ShapeError, UnknownEntityError)
from .gradcheck import gradient_check, miniature_model, standard_checks
from .ingest import (DatasetStats, ParseResult, ReviewGroups, ReviewRecord,
                     Split, dataset_stats, group_reviews, parse_reviews,
                     parse_reviews_file, serialize_reviews, split_dataset)
from .layers import (Conv1d, Dense, Dropout, GruCell, LstmCell,
                     MaxPoolOverTime, Parameter)
from .model import (DeepConn, DpHead, FmHead, ModelConfig, Tower, TowerConfig,
                    build_config, mse)
from .optim import Adam, RMSprop, make_optimizer
from .text import (EmbeddingTable, EncodedDocument, build_document, embed,
                   load_embeddings, tokenize)
from .train import (DocumentStore, RatedPair, TrainReport, evaluate, fit,
                    load_checkpoint, mean_predictor_mse, pairs_from_records,
                    restore_parameters, save_checkpoint)

__version__ = "0.1.0"
