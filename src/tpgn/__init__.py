"""Long-range univariate forecasting with a parallel gated cell.

The library is organized bottom-up:

* :mod:`tpgn.autodiff` - float64 tensors on a deterministic reverse-mode tape
* :mod:`tpgn.pgn` - the parallel gated cell (constant-depth sequence model)
* :mod:`tpgn.baselines` - GRU/LSTM/MLP cells and the table of every cell kind
* :mod:`tpgn.model` - the two-branch forecaster over batches of period grids
* :mod:`tpgn.data` - CSV ingest, hourly aggregation, windowing, noise
* :mod:`tpgn.training` - L2 loss, Adam, early stopping, checkpoints
* :mod:`tpgn.bench` - wall-clock / memory / cost scaling measurements
* :mod:`tpgn.cli` - the ``tpgn`` command
"""

from .autodiff import (Graph, GradientMap, ParamSet, Tensor, backward,
                       constant, finite_diff_check)
from .errors import (ConfigError, ContractError, DataError, DimensionError,
                     DivergenceError, TpgnError)
from .pgn import PgnOutput, PgnParams, pgn_apply, pgn_forward, pgn_forward_oracle
from .baselines import (CELLS, GruParams, LstmParams, MlpParams, cell_forward,
                        recurrent_forward, sequence_graph_depth)
from .model import (VARIANTS, FlopCount, NormStats, SeriesWindow, TpgnConfig,
                    TpgnParams, TpgnVariant, flop_count, forecast_head,
                    long_branch, param_count, prepare_input, short_branch,
                    tpgn_forward, tpgn_forward_batch)

__version__ = "0.1.0"
