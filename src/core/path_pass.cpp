#include "core/path_pass.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/pool.hpp"

namespace rnx::core {

using nn::Tensor;
using nn::TensorPool;

PathPass::PathPass(const nn::GRUCell& cell, const MpPlan& plan,
                   bool use_nodes)
    : cell_(cell), plan_(plan) {
  const std::size_t hid = cell.hidden_dim(), paths = plan.num_paths;
  packed_ = TensorPool::acquire_uninit(paths, hid);
  w_hzr_ = cell.hidden_zr_panel();
  a_zr_ = TensorPool::acquire_uninit(paths, 2 * hid);
  a_n_ = TensorPool::acquire_uninit(paths, hid);
  scratch_ = TensorPool::acquire_uninit(paths, 4 * hid);
  msg_ = TensorPool::acquire_uninit(
      std::max(plan.num_links, use_nodes ? plan.num_nodes : 0), hid);
  link_zr_ = TensorPool::acquire_uninit(plan.num_links, 2 * hid);
  link_n_ = TensorPool::acquire_uninit(plan.num_links, hid);
  if (use_nodes) {
    node_zr_ = TensorPool::acquire_uninit(plan.num_nodes, 2 * hid);
    node_n_ = TensorPool::acquire_uninit(plan.num_nodes, hid);
  }
}

PathPass::~PathPass() {
  for (Tensor* t : {&packed_, &w_hzr_, &a_zr_, &a_n_, &scratch_, &msg_,
                    &link_zr_, &link_n_, &node_zr_, &node_n_})
    TensorPool::release(std::move(*t));
}

void PathPass::pack(const Tensor& h_path) {
  const std::span<const nn::Index> order = plan_.packed_order();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto row = h_path.row(order[k]);
    std::copy(row.begin(), row.end(), packed_.row(k).begin());
  }
}

void PathPass::unpack(Tensor& dst) const {
  const std::span<const nn::Index> order = plan_.packed_order();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto row = packed_.row(k);
    std::copy(row.begin(), row.end(), dst.row(order[k]).begin());
  }
}

namespace {

/// total (+)= the position's messages: msg's first `count` rows are
/// zeroed, then msg[elem_ids[i]] += packed[packed_rows[i]] for i
/// ascending — the exact operations of segment_sum over the gathered
/// rows, then add into the running sum.
void accumulate_messages(Tensor& total, Tensor& msg, const Tensor& packed,
                         const PlanPosition& pos, std::size_t count) {
  const std::size_t hid = packed.cols(), n = count * hid;
  double* m = msg.flat().data();
  std::fill(m, m + n, 0.0);
  for (std::size_t i = 0; i < pos.elem_ids.size(); ++i) {
    double* dst = m + pos.elem_ids[i] * hid;
    const double* row = packed.row(pos.packed_rows[i]).data();
    for (std::size_t c = 0; c < hid; ++c) dst[c] += row[c];
  }
  if (total.empty()) {
    total = TensorPool::acquire_uninit(count, hid);
    std::copy(m, m + n, total.flat().data());
  } else {
    double* t = total.flat().data();
    nn::kernels::active().vadd(t, t, m, n);
  }
}

}  // namespace

void PathPass::run(const Tensor& h_link, const Tensor* h_node,
                   bool positional_node_msgs, Tensor& link_msg,
                   Tensor& node_msg, double* saved) {
  const std::size_t hid = cell_.hidden_dim();
  cell_.project_inputs(h_link, link_zr_, link_n_);
  if (h_node != nullptr) cell_.project_inputs(*h_node, node_zr_, node_n_);
  for (std::size_t p = 0; p < plan_.num_positions(); ++p) {
    const PlanPosition pos = plan_.position(p);
    const std::size_t rows = pos.path_rows.size();
    const Tensor& src_zr = pos.is_node ? node_zr_ : link_zr_;
    const Tensor& src_n = pos.is_node ? node_n_ : link_n_;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto zr = src_zr.row(pos.elem_ids[i]);
      const auto n = src_n.row(pos.elem_ids[i]);
      std::copy(zr.begin(), zr.end(), a_zr_.row(pos.packed_rows[i]).begin());
      std::copy(n.begin(), n.end(), a_n_.row(pos.packed_rows[i]).begin());
    }
    cell_.step_projected(packed_.flat().data(), a_zr_.flat().data(),
                         a_n_.flat().data(), rows, w_hzr_, scratch_.flat(),
                         saved);
    if (saved != nullptr) saved += 4 * rows * hid;
    if (!pos.is_node)
      accumulate_messages(link_msg, msg_, packed_, pos, plan_.num_links);
    else if (positional_node_msgs)
      accumulate_messages(node_msg, msg_, packed_, pos, plan_.num_nodes);
  }
}

// ---- the tape op -----------------------------------------------------------

namespace {

/// State shared by the op's nodes: the saved activations, and the
/// message gradients the message nodes hand back before the main node's
/// backward runs (they are its children on the tape, so a reverse
/// topological sweep always reaches them first).
struct SequenceTape {
  Tensor saved;   ///< one [h_prev | z | r | n] block per position
  Tensor g_link;  ///< dL/d link_msg; empty when off the gradient path
  Tensor g_node;  ///< dL/d node_msg; likewise
  SequenceTape() = default;
  SequenceTape(const SequenceTape&) = delete;
  SequenceTape& operator=(const SequenceTape&) = delete;
  ~SequenceTape() {
    TensorPool::release(std::move(saved));
    TensorPool::release(std::move(g_link));
    TensorPool::release(std::move(g_node));
  }
};

Tensor pooled_copy(const Tensor& src) {
  Tensor dst = TensorPool::acquire_uninit(src.rows(), src.cols());
  std::copy(src.flat().begin(), src.flat().end(), dst.flat().begin());
  return dst;
}

/// rows[dst_rows[i]] += src.row(src_rows[i]) for every entry.
void add_rows(Tensor& dst, std::span<const nn::Index> dst_rows,
              const double* src, std::span<const nn::Index> src_rows,
              std::size_t cols) {
  for (std::size_t i = 0; i < dst_rows.size(); ++i) {
    double* d = dst.row(dst_rows[i]).data();
    const double* s = src + src_rows[i] * cols;
    for (std::size_t c = 0; c < cols; ++c) d[c] += s[c];
  }
}

/// The op's backward: g is dL/d path_states (sample order).
void sequence_backward(const nn::GRUCell& cell, const MpPlan& plan,
                       const SequenceTape& tape, const Tensor& g,
                       nn::Var& h_path, nn::Var& h_link, nn::Var& h_node) {
  const std::size_t hid = cell.hidden_dim(), paths = plan.num_paths;
  const bool use_nodes = h_node.defined();
  const std::span<const nn::Index> order = plan.packed_order();

  // dL/d(packed state after the last position).
  Tensor gh = TensorPool::acquire_uninit(paths, hid);
  for (std::size_t k = 0; k < paths; ++k) {
    const auto row = g.row(order[k]);
    std::copy(row.begin(), row.end(), gh.row(k).begin());
  }
  Tensor w_t = cell.hidden_panel_t();
  Tensor d_zr = TensorPool::acquire_uninit(paths, 2 * hid);
  Tensor d_n = TensorPool::acquire_uninit(paths, hid);
  Tensor scratch = TensorPool::acquire_uninit(paths, 2 * hid);
  Tensor dw_hzr = TensorPool::acquire(hid, 2 * hid);
  Tensor dw_hn = TensorPool::acquire(hid, hid);
  // Pre-activation gradients per link / node row: where the input-half
  // projections of the forward came from.
  Tensor link_dzr = TensorPool::acquire(plan.num_links, 2 * hid);
  Tensor link_dn = TensorPool::acquire(plan.num_links, hid);
  Tensor node_dzr, node_dn;
  if (use_nodes) {
    node_dzr = TensorPool::acquire(plan.num_nodes, 2 * hid);
    node_dn = TensorPool::acquire(plan.num_nodes, hid);
  }

  const double* saved_end =
      tape.saved.flat().data() + 4 * hid * plan.total_entries();
  for (std::size_t p = plan.num_positions(); p-- > 0;) {
    const PlanPosition pos = plan.position(p);
    const std::size_t rows = pos.path_rows.size();
    saved_end -= 4 * rows * hid;
    // The position's messages were read off the state after its step
    // (node positions send none unless the ablation's g_node exists).
    const Tensor& g_msg = pos.is_node ? tape.g_node : tape.g_link;
    if (!g_msg.empty())
      add_rows(gh, pos.packed_rows, g_msg.flat().data(), pos.elem_ids, hid);
    cell.step_projected_backward(gh.flat().data(), saved_end,
                                 d_zr.flat().data(), d_n.flat().data(), rows,
                                 w_t, dw_hzr, dw_hn, scratch.flat());
    Tensor& dst_zr = pos.is_node ? node_dzr : link_dzr;
    Tensor& dst_n = pos.is_node ? node_dn : link_dn;
    add_rows(dst_zr, pos.elem_ids, d_zr.flat().data(), pos.packed_rows,
             2 * hid);
    add_rows(dst_n, pos.elem_ids, d_n.flat().data(), pos.packed_rows, hid);
  }

  if (h_path.requires_grad()) {
    Tensor& hg = h_path.grad_ref();
    for (std::size_t k = 0; k < paths; ++k) {
      double* d = hg.row(order[k]).data();
      const double* s = gh.row(k).data();
      for (std::size_t c = 0; c < hid; ++c) d[c] += s[c];
    }
  }
  cell.add_hidden_grads(dw_hzr, dw_hn);
  cell.project_inputs_backward(
      h_link.value(), link_dzr, link_dn,
      h_link.requires_grad() ? &h_link.grad_ref() : nullptr);
  if (use_nodes)
    cell.project_inputs_backward(
        h_node.value(), node_dzr, node_dn,
        h_node.requires_grad() ? &h_node.grad_ref() : nullptr);

  for (Tensor* t : {&gh, &w_t, &d_zr, &d_n, &scratch, &dw_hzr, &dw_hn,
                    &link_dzr, &link_dn, &node_dzr, &node_dn})
    TensorPool::release(std::move(*t));
}

}  // namespace

PathSequence path_sequence(const nn::GRUCell& cell,
                           std::shared_ptr<const MpPlan> plan,
                           const nn::Var& h_path, const nn::Var& h_link,
                           const nn::Var& h_node, bool positional_node_msgs) {
  const std::size_t hid = cell.hidden_dim();
  const bool use_nodes = h_node.defined();
  // The kernels index raw rows by plan ids; a plan built for other entity
  // counts (a stale address-keyed cache entry) must fail here.
  if (h_path.rows() != plan->num_paths || h_link.rows() != plan->num_links ||
      (use_nodes && h_node.rows() != plan->num_nodes) ||
      h_path.cols() != hid || h_link.cols() != cell.input_dim() ||
      (use_nodes && h_node.cols() != cell.input_dim()))
    throw std::invalid_argument(
        "path_sequence: states do not match the plan's path/link/node "
        "counts or the cell's widths");

  auto tape = std::make_shared<SequenceTape>();
  tape->saved = TensorPool::acquire_uninit(plan->total_entries(), 4 * hid);
  Tensor states = TensorPool::acquire_uninit(plan->num_paths, hid);
  Tensor link_msg, node_msg;
  {
    PathPass pass(cell, *plan, use_nodes);
    pass.pack(h_path.value());
    pass.run(h_link.value(), use_nodes ? &h_node.value() : nullptr,
             positional_node_msgs, link_msg, node_msg,
             tape->saved.flat().data());
    pass.unpack(states);
  }

  std::vector<nn::Var> parents = {h_path, h_link};
  if (use_nodes) parents.push_back(h_node);
  for (auto& [name, p] : cell.named_params()) parents.push_back(p);
  PathSequence out;
  out.path_states = nn::Var::make(
      std::move(states), std::move(parents),
      [cell, plan, tape, h_path = nn::Var(h_path), h_link = nn::Var(h_link),
       h_node = nn::Var(h_node)](const Tensor& g) mutable {
        sequence_backward(cell, *plan, *tape, g, h_path, h_link, h_node);
        TensorPool::release(std::move(tape->g_link));  // one sweep each
        TensorPool::release(std::move(tape->g_node));
      });
  // The message outputs hang off the op node: their backward only hands
  // the gradient over.  A slot left empty (the message never reached the
  // loss) counts as zero.
  const auto message_node = [&](Tensor value, Tensor SequenceTape::*slot) {
    if (value.empty()) return nn::Var();
    return nn::Var::make(std::move(value), {out.path_states},
                         [tape, slot](const Tensor& g) {
                           (*tape).*slot = pooled_copy(g);
                         });
  };
  out.link_msg = message_node(std::move(link_msg), &SequenceTape::g_link);
  out.node_msg = message_node(std::move(node_msg), &SequenceTape::g_node);
  return out;
}

}  // namespace rnx::core
