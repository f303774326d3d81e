#include "rnn/lstm_cell.h"

#include "core/logging.h"
#include "graph/ops/oplib.h"

namespace echo::rnn {

namespace ol = graph::oplib;

LstmWeights
makeLstmWeights(Graph &g, int64_t input_size, int64_t hidden,
                const std::string &prefix)
{
    LstmWeights w;
    w.wx = g.weight(Shape({4 * hidden, input_size}), prefix + ".wx");
    w.wh = g.weight(Shape({4 * hidden, hidden}), prefix + ".wh");
    w.bias = g.weight(Shape({4 * hidden}), prefix + ".bias");
    return w;
}

CellState
buildLstmCell(Graph &g, Val x_t, const CellState &prev,
              const LstmWeights &w)
{
    const int64_t hidden = graph::Graph::shapeOf(w.wh)[1];

    // The two fully-connected projections (Equation 1 of the paper).
    const Val gx = g.apply1(ol::gemm(false, true), {x_t, w.wx});
    const Val gh = g.apply1(ol::gemm(false, true), {prev.h, w.wh});
    const Val gates =
        g.apply1(ol::addBias(), {g.apply1(ol::add(), {gx, gh}), w.bias});

    // Per-gate slicing + activations — the "f" block of Fig. 1, left
    // unfused exactly like MXNet's LSTMCell.
    const Val i_gate = g.apply1(
        ol::sigmoidOp(),
        {g.apply1(ol::sliceOp(1, 0 * hidden, 1 * hidden), {gates})});
    const Val f_gate = g.apply1(
        ol::sigmoidOp(),
        {g.apply1(ol::sliceOp(1, 1 * hidden, 2 * hidden), {gates})});
    const Val g_gate = g.apply1(
        ol::tanhOp(),
        {g.apply1(ol::sliceOp(1, 2 * hidden, 3 * hidden), {gates})});
    const Val o_gate = g.apply1(
        ol::sigmoidOp(),
        {g.apply1(ol::sliceOp(1, 3 * hidden, 4 * hidden), {gates})});

    CellState next;
    next.c = g.apply1(ol::add(),
                      {g.apply1(ol::mul(), {f_gate, prev.c}),
                       g.apply1(ol::mul(), {i_gate, g_gate})});
    next.h = g.apply1(ol::mul(),
                      {o_gate, g.apply1(ol::tanhOp(), {next.c})});
    return next;
}

} // namespace echo::rnn
