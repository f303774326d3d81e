/**
 * @file
 * Unfused LSTM cell builder — one time step as a subgraph of
 * primitive ops, mirroring MXNet's LSTMCell (the paper's "Default"
 * implementation).  Each gate slice, activation, and element-wise update
 * is its own graph node and therefore its own GPU kernel launch, which
 * is exactly why Default is launch-overhead-bound (Fig. 7a).
 */
#ifndef ECHO_RNN_LSTM_CELL_H
#define ECHO_RNN_LSTM_CELL_H

#include "graph/graph.h"

namespace echo::rnn {

using graph::Graph;
using graph::Val;

/** Weights of one LSTM layer (shared across time steps). */
struct LstmWeights
{
    Val wx;   ///< [4H x I]
    Val wh;   ///< [4H x H]
    Val bias; ///< [4H]
};

/** Create the weights for one LSTM layer. */
LstmWeights makeLstmWeights(Graph &g, int64_t input_size, int64_t hidden,
                            const std::string &prefix);

/** Hidden and cell state after one step. */
struct CellState
{
    Val h;
    Val c;
};

/**
 * Build one unfused LSTM cell step:
 * gates = x Wx^T + h_prev Wh^T + b; i,f,g,o = slices; c = f*c + i*g;
 * h = o * tanh(c).  ~14 primitive nodes (kernels) per step.
 */
CellState buildLstmCell(Graph &g, Val x_t, const CellState &prev,
                        const LstmWeights &w);

} // namespace echo::rnn

#endif // ECHO_RNN_LSTM_CELL_H
