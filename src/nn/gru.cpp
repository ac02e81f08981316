#include "nn/gru.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/pool.hpp"

namespace rnx::nn {

GRUCell::GRUCell(std::size_t input_dim, std::size_t hidden_dim,
                 util::RngStream& rng, std::string name)
    : in_(input_dim), hid_(hidden_dim), name_(std::move(name)) {
  if (input_dim == 0 || hidden_dim == 0)
    throw std::invalid_argument("GRUCell: zero dimension");
  auto w = [&](std::size_t r, std::size_t c) {
    return Var(glorot_uniform(r, c, rng), /*requires_grad=*/true);
  };
  auto b = [&](std::size_t c) {
    return Var(Tensor::zeros(1, c), /*requires_grad=*/true);
  };
  wxz_ = w(in_, hid_); whz_ = w(hid_, hid_); bz_ = b(hid_);
  wxr_ = w(in_, hid_); whr_ = w(hid_, hid_); br_ = b(hid_);
  wxn_ = w(in_, hid_); whn_ = w(hid_, hid_); bn_ = b(hid_);
}

GRUCell::GRUCell(std::span<const std::pair<std::string, Var>> params) {
  if (params.size() != 9)
    throw std::invalid_argument("GRUCell: expected 9 parameters");
  const std::string& first = params[0].first;
  name_ = first.substr(0, first.rfind('.'));
  wxz_ = params[0].second; whz_ = params[1].second; bz_ = params[2].second;
  wxr_ = params[3].second; whr_ = params[4].second; br_ = params[5].second;
  wxn_ = params[6].second; whn_ = params[7].second; bn_ = params[8].second;
  in_ = wxz_.rows();
  hid_ = wxz_.cols();
  if (in_ == 0 || hid_ == 0 || whz_.rows() != hid_ || bz_.cols() != hid_)
    throw std::invalid_argument("GRUCell: parameter shape mismatch");
}

namespace {

/// dst (R x H) initialized to the bias row broadcast over R rows.
void broadcast_bias(Tensor& dst, const Tensor& bias) {
  const double* bv = bias.row(0).data();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* row = dst.row(r).data();
    for (std::size_t c = 0; c < dst.cols(); ++c) row[c] = bv[c];
  }
}

/// dst (R x 2H) initialized to [bias_a | bias_b] broadcast over R rows.
void broadcast_bias2(Tensor& dst, const Tensor& bias_a,
                     const Tensor& bias_b) {
  const std::size_t h = bias_a.cols();
  const double* av = bias_a.row(0).data();
  const double* bv = bias_b.row(0).data();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* row = dst.row(r).data();
    for (std::size_t c = 0; c < h; ++c) row[c] = av[c];
    for (std::size_t c = 0; c < h; ++c) row[h + c] = bv[c];
  }
}

/// dst (R x (Ca+Cb)) = [a | b] column concatenation.
void concat2(Tensor& dst, const Tensor& a, const Tensor& b) {
  const std::size_t ca = a.cols(), cb = b.cols();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* row = dst.row(r).data();
    const double* ar = a.row(r).data();
    const double* br = b.row(r).data();
    for (std::size_t c = 0; c < ca; ++c) row[c] = ar[c];
    for (std::size_t c = 0; c < cb; ++c) row[ca + c] = br[c];
  }
}

/// dst += the dst-shaped block of src's columns [off, off + dst.cols()).
void add_cols(Tensor& dst, const Tensor& src, std::size_t off) {
  const std::size_t h = dst.cols();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* d = dst.row(r).data();
    const double* s = src.row(r).data() + off;
    for (std::size_t c = 0; c < h; ++c) d[c] += s[c];
  }
}

/// bias_grad (1 x H) += column sums of g's columns [off, off+H).
void colsum_block_acc(Tensor& bias_grad, const Tensor& g, std::size_t off) {
  const std::size_t h = bias_grad.cols();
  double* bg = bias_grad.row(0).data();
  for (std::size_t r = 0; r < g.rows(); ++r) {
    const double* row = g.row(r).data() + off;
    for (std::size_t c = 0; c < h; ++c) bg[c] += row[c];
  }
}

}  // namespace

Var GRUCell::step(const Var& x, const Var& h) const {
  if (x.cols() != in_ || h.cols() != hid_ || x.rows() != h.rows())
    throw std::invalid_argument(
        "GRUCell::step (" + name_ + "): shape mismatch: x " +
        std::to_string(x.rows()) + "x" + std::to_string(x.cols()) + ", h " +
        std::to_string(h.rows()) + "x" + std::to_string(h.cols()) +
        ", cell in=" + std::to_string(in_) + " hid=" + std::to_string(hid_));
  const std::size_t rows = x.rows();
  const bool record = !grad_disabled();

  // One position of the projected split over all R rows, run in place on
  // a pooled copy of h.  Under grad the step saves [h_prev | z | r | n].
  Tensor a_zr = TensorPool::acquire_uninit(rows, 2 * hid_);
  Tensor a_n = TensorPool::acquire_uninit(rows, hid_);
  project_inputs(x.value(), a_zr, a_n);
  Tensor w_hzr = hidden_zr_panel();
  Tensor y = TensorPool::acquire_uninit(rows, hid_);
  const auto hv = h.value().flat();
  std::copy(hv.begin(), hv.end(), y.flat().begin());
  Tensor saved;
  if (record) saved = TensorPool::acquire_uninit(rows, 4 * hid_);
  Tensor scratch = TensorPool::acquire_uninit(rows, (record ? 1 : 4) * hid_);
  step_projected(y.flat().data(), a_zr.flat().data(), a_n.flat().data(), rows,
                 w_hzr, scratch.flat(), record ? saved.flat().data() : nullptr);
  for (Tensor* t : {&a_zr, &a_n, &w_hzr, &scratch})
    TensorPool::release(std::move(*t));
  if (!record) return Var(std::move(y));

  // One tape node for the whole step; its backward is the split's.
  return Var::make(
      std::move(y),
      {x, h, wxz_, whz_, bz_, wxr_, whr_, br_, wxn_, whn_, bn_},
      [cell = *this, x = Var(x), h = Var(h),
       saved = std::move(saved)](const Tensor& g) mutable {
        const std::size_t nrows = g.rows(), hid = g.cols();
        Tensor gh = TensorPool::acquire_uninit(nrows, hid);
        std::copy(g.flat().begin(), g.flat().end(), gh.flat().begin());
        Tensor d_zr = TensorPool::acquire_uninit(nrows, 2 * hid);
        Tensor d_n = TensorPool::acquire_uninit(nrows, hid);
        Tensor w_t = cell.hidden_panel_t();
        Tensor dw_hzr = TensorPool::acquire(hid, 2 * hid);
        Tensor dw_hn = TensorPool::acquire(hid, hid);
        Tensor bwd_scratch = TensorPool::acquire_uninit(nrows, 2 * hid);
        cell.step_projected_backward(gh.flat().data(), saved.flat().data(),
                                     d_zr.flat().data(), d_n.flat().data(),
                                     nrows, w_t, dw_hzr, dw_hn,
                                     bwd_scratch.flat());
        cell.add_hidden_grads(dw_hzr, dw_hn);
        cell.project_inputs_backward(
            x.value(), d_zr, d_n, x.requires_grad() ? &x.grad_ref() : nullptr);
        if (h.requires_grad()) h.grad_ref().add_inplace(gh);
        for (Tensor* t :
             {&gh, &d_zr, &d_n, &w_t, &dw_hzr, &dw_hn, &bwd_scratch})
          TensorPool::release(std::move(*t));
      });
}

void GRUCell::project_inputs(const Tensor& x, Tensor& a_zr,
                             Tensor& a_n) const {
  if (x.cols() != in_ || a_zr.rows() != x.rows() || a_zr.cols() != 2 * hid_ ||
      a_n.rows() != x.rows() || a_n.cols() != hid_)
    throw std::invalid_argument("GRUCell::project_inputs (" + name_ +
                                "): shape mismatch");
  Tensor w_xzr = TensorPool::acquire_uninit(in_, 2 * hid_);
  concat2(w_xzr, wxz_.value(), wxr_.value());
  broadcast_bias2(a_zr, bz_.value(), br_.value());
  matmul_acc(a_zr, x, w_xzr);
  TensorPool::release(std::move(w_xzr));
  broadcast_bias(a_n, bn_.value());
  matmul_acc(a_n, x, wxn_.value());
}

Tensor GRUCell::hidden_zr_panel() const {
  Tensor w_hzr = TensorPool::acquire_uninit(hid_, 2 * hid_);
  concat2(w_hzr, whz_.value(), whr_.value());
  return w_hzr;
}

void GRUCell::step_projected(double* h, double* a_zr, double* a_n,
                             std::size_t rows, const Tensor& w_hzr,
                             std::span<double> scratch, double* saved) const {
  const std::size_t n = rows * hid_;
  if (w_hzr.rows() != hid_ || w_hzr.cols() != 2 * hid_ ||
      scratch.size() < (saved != nullptr ? n : 4 * n))
    throw std::invalid_argument("GRUCell::step_projected (" + name_ +
                                "): panel or scratch too small");
  double* z = scratch.data();
  double* r = z + n;
  double* rh = r + n;
  double* cand = rh + n;
  if (saved != nullptr) {
    std::copy(h, h + n, saved);
    z = saved + n;
    r = z + n;
    cand = r + n;
    rh = scratch.data();
  }
  // Raw backend kernels; the blend writes y over h element by element
  // (gru_blend allows y == h).
  const auto& backend = kernels::active();
  backend.matmul_acc(a_zr, h, w_hzr.flat().data(), rows, hid_, 2 * hid_);
  backend.gru_gates(z, r, rh, a_zr, h, rows, hid_);
  backend.matmul_acc(a_n, rh, whn_.value().flat().data(), rows, hid_, hid_);
  backend.gru_blend(cand, h, a_n, z, h, n);
}

void GRUCell::step_projected_backward(double* g, const double* saved,
                                      double* d_zr, double* d_n,
                                      std::size_t rows, const Tensor& w_t,
                                      Tensor& dw_hzr, Tensor& dw_hn,
                                      std::span<double> scratch) const {
  const std::size_t hid = hid_, n = rows * hid;
  if (scratch.size() < 2 * n || w_t.rows() != 3 * hid || w_t.cols() != hid ||
      dw_hzr.rows() != hid || dw_hzr.cols() != 2 * hid ||
      dw_hn.rows() != hid || dw_hn.cols() != hid)
    throw std::invalid_argument("GRUCell::step_projected_backward (" + name_ +
                                "): panel or scratch too small");
  const double* h = saved;
  const double* z = h + n;
  const double* r = z + n;
  const double* cand = r + n;
  double* rh = scratch.data();
  double* drh = rh + n;
  // d_n = g (1-z) (1-n^2);  dz = g (h-n) z (1-z) into d_zr's left half.
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t o = row * hid;
    double* dz = d_zr + 2 * o;
    for (std::size_t c = 0; c < hid; ++c) {
      const std::size_t i = o + c;
      d_n[i] = g[i] * (1.0 - z[i]) * (1.0 - cand[i] * cand[i]);
      dz[c] = g[i] * (h[i] - cand[i]) * z[i] * (1.0 - z[i]);
      rh[i] = r[i] * h[i];
    }
  }
  const auto& backend = kernels::active();
  backend.matmul_tn_acc(dw_hn.flat().data(), rh, d_n, hid, rows, hid);
  // drh = d_n Whn^T; dr = drh h r (1-r) into d_zr's right half.
  const double* w_zr_t = w_t.flat().data();  // [Whz|Whr]^T, 2H x H
  const double* w_n_t = w_zr_t + 2 * hid * hid;  // Whn^T
  std::fill(drh, drh + n, 0.0);
  backend.matmul_acc(drh, d_n, w_n_t, rows, hid, hid);
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t o = row * hid;
    double* dr = d_zr + 2 * o + hid;
    for (std::size_t c = 0; c < hid; ++c) {
      const std::size_t i = o + c;
      dr[c] = drh[i] * h[i] * r[i] * (1.0 - r[i]);
    }
  }
  backend.matmul_tn_acc(dw_hzr.flat().data(), h, d_zr, hid, rows, 2 * hid);
  // dh = g z (direct blend term) + drh r (through the reset gate)
  //    + d_zr [Whz|Whr]^T (through the z/r pre-activations).
  for (std::size_t i = 0; i < n; ++i) g[i] = g[i] * z[i] + drh[i] * r[i];
  backend.matmul_acc(g, d_zr, w_zr_t, rows, 2 * hid, hid);
}

Tensor GRUCell::hidden_panel_t() const {
  Tensor w_t = TensorPool::acquire_uninit(3 * hid_, hid_);
  const Tensor* blocks[] = {&whz_.value(), &whr_.value(), &whn_.value()};
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t i = 0; i < hid_; ++i)
      for (std::size_t j = 0; j < hid_; ++j)
        w_t(b * hid_ + j, i) = (*blocks[b])(i, j);
  return w_t;
}

void GRUCell::add_hidden_grads(const Tensor& dw_hzr,
                               const Tensor& dw_hn) const {
  Var whz = whz_, whr = whr_, whn = whn_;
  if (whz.requires_grad()) add_cols(whz.grad_ref(), dw_hzr, 0);
  if (whr.requires_grad()) add_cols(whr.grad_ref(), dw_hzr, hid_);
  if (whn.requires_grad()) whn.grad_ref().add_inplace(dw_hn);
}

void GRUCell::project_inputs_backward(const Tensor& x, const Tensor& d_zr,
                                      const Tensor& d_n,
                                      Tensor* x_grad) const {
  Var wxz = wxz_, wxr = wxr_, wxn = wxn_, bz = bz_, br = br_, bn = bn_;
  if (bz.requires_grad()) colsum_block_acc(bz.grad_ref(), d_zr, 0);
  if (br.requires_grad()) colsum_block_acc(br.grad_ref(), d_zr, hid_);
  if (bn.requires_grad()) colsum_block_acc(bn.grad_ref(), d_n, 0);
  Tensor dw = TensorPool::acquire(in_, 2 * hid_);
  matmul_tn_acc(dw, x, d_zr);
  if (wxz.requires_grad()) add_cols(wxz.grad_ref(), dw, 0);
  if (wxr.requires_grad()) add_cols(wxr.grad_ref(), dw, hid_);
  TensorPool::release(std::move(dw));
  if (wxn.requires_grad()) matmul_tn_acc(wxn.grad_ref(), x, d_n);
  if (x_grad != nullptr) {
    Tensor w_xzr = TensorPool::acquire_uninit(in_, 2 * hid_);
    concat2(w_xzr, wxz_.value(), wxr_.value());
    matmul_nt_acc(*x_grad, d_zr, w_xzr);
    matmul_nt_acc(*x_grad, d_n, wxn_.value());
    TensorPool::release(std::move(w_xzr));
  }
}

std::vector<std::pair<std::string, Var>> GRUCell::named_params() const {
  return {{name_ + ".wxz", wxz_}, {name_ + ".whz", whz_}, {name_ + ".bz", bz_},
          {name_ + ".wxr", wxr_}, {name_ + ".whr", whr_}, {name_ + ".br", br_},
          {name_ + ".wxn", wxn_}, {name_ + ".whn", whn_}, {name_ + ".bn", bn_}};
}

}  // namespace rnx::nn
