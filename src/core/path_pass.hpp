// The packed path-RNN pass: the part of a message-passing iteration
// that runs RNN_P over every path's element sequence (DESIGN.md §G).
//
// Both forwards run this one schedule.  Per iteration the path GRU's
// input half is projected once per link and node row; the path states
// live in the plan's packed row order, so each position's active rows
// are a contiguous prefix, updated in place; link (and positional node)
// messages are summed in the plan's original entry order, so float
// association is that of gather → step → segment_sum + add.
//
//   * PathPass — pooled buffers and the forward schedule.  The NoGrad
//     inference forward (core/infer.cpp) keeps one across iterations.
//   * path_sequence — the training forward's tape op: one PathPass run
//     per iteration that saves each position's [h_prev | z | r | n]
//     prefix in one pooled arena, and a hand-written backward that walks
//     the positions in reverse on the packed prefix.
#pragma once

#include <memory>

#include "core/plan.hpp"
#include "nn/autograd.hpp"
#include "nn/gru.hpp"

namespace rnx::core {

class PathPass {
 public:
  /// Buffers for `plan` (node projections only with use_nodes), drawn
  /// from the thread's TensorPool and returned on destruction.  The cell
  /// and plan must outlive the pass.
  PathPass(const nn::GRUCell& cell, const MpPlan& plan, bool use_nodes);
  ~PathPass();
  PathPass(const PathPass&) = delete;
  PathPass& operator=(const PathPass&) = delete;

  /// Load path states (P x H, sample order) into the packed state.
  void pack(const nn::Tensor& h_path);
  /// Write the packed state to dst (P x H) in sample order.
  void unpack(nn::Tensor& dst) const;

  /// One path pass over every position, in place on the packed state.
  /// Link messages are summed into link_msg (L x H; left empty when no
  /// position reads links) and, with positional_node_msgs, node-position
  /// messages into node_msg (N x H).  A non-null `saved` (4H doubles per
  /// plan entry) receives every position's [h_prev | z | r | n] block,
  /// position after position; the new states are the same either way.
  void run(const nn::Tensor& h_link, const nn::Tensor* h_node,
           bool positional_node_msgs, nn::Tensor& link_msg,
           nn::Tensor& node_msg, double* saved = nullptr);

 private:
  const nn::GRUCell& cell_;
  const MpPlan& plan_;
  nn::Tensor packed_;   ///< P x H path states, packed row order
  nn::Tensor w_hzr_;    ///< [Whz|Whr]
  nn::Tensor a_zr_;     ///< P x 2H gathered z/r pre-activations
  nn::Tensor a_n_;      ///< P x H gathered candidate pre-activations
  nn::Tensor scratch_;  ///< P x 4H step scratch
  nn::Tensor msg_;      ///< (L|N) x H one position's messages
  nn::Tensor link_zr_, link_n_, node_zr_, node_n_;  ///< input projections
};

/// Outputs of one path-sequence op.
struct PathSequence {
  nn::Var path_states;  ///< (P x H) after the last position, sample order
  nn::Var link_msg;     ///< (L x H) summed link messages; undefined if none
  nn::Var node_msg;     ///< (N x H) positional node messages, if requested
};

/// The path RNN pass of one message-passing iteration as one tape op
/// (the message outputs are thin nodes over it that hand their gradients
/// back).  Values are bitwise those of PathPass::run.  The backward
/// injects the message gradients position by position, runs the GRU
/// backward on the packed prefix, accumulates the hidden-half weight
/// gradients per position and the pre-activation gradients per link and
/// node row, then applies the input-half weight, bias and input
/// gradients once per entity kind.  Throws std::invalid_argument when
/// the states do not match the plan's path/link/node counts.
[[nodiscard]] PathSequence path_sequence(const nn::GRUCell& cell,
                                         std::shared_ptr<const MpPlan> plan,
                                         const nn::Var& h_path,
                                         const nn::Var& h_link,
                                         const nn::Var& h_node,
                                         bool positional_node_msgs);

}  // namespace rnx::core
