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

/// dst ((in+hid) x 2H) = [[wxa|wxb]; [wha|whb]] — the stacked
/// concatenated z/r gate weight panel multiplying [x|h].
void build_zr_panel(Tensor& dst, const Tensor& wxa, const Tensor& wxb,
                    const Tensor& wha, const Tensor& whb) {
  const std::size_t h = wxa.cols();
  for (std::size_t r = 0; r < wxa.rows(); ++r) {
    double* d = dst.row(r).data();
    const double* a = wxa.row(r).data();
    const double* b = wxb.row(r).data();
    for (std::size_t c = 0; c < h; ++c) d[c] = a[c];
    for (std::size_t c = 0; c < h; ++c) d[h + c] = b[c];
  }
  for (std::size_t r = 0; r < wha.rows(); ++r) {
    double* d = dst.row(wxa.rows() + r).data();
    const double* a = wha.row(r).data();
    const double* b = whb.row(r).data();
    for (std::size_t c = 0; c < h; ++c) d[c] = a[c];
    for (std::size_t c = 0; c < h; ++c) d[h + c] = b[c];
  }
}

/// dst += the dst-shaped sub-block of src anchored at (row_off, col_off).
void add_block(Tensor& dst, const Tensor& src, std::size_t row_off,
               std::size_t col_off) {
  const std::size_t h = dst.cols();
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    double* d = dst.row(r).data();
    const double* s = src.row(row_off + r).data() + col_off;
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

/// bias_grad (1 x H) += column sums of g (R x H).
void colsum_acc(Tensor& bias_grad, const Tensor& g) {
  colsum_block_acc(bias_grad, g, 0);
}

}  // namespace

Var GRUCell::step(const Var& x, const Var& h) const {
  if (x.cols() != in_ || h.cols() != hid_ || x.rows() != h.rows())
    throw std::invalid_argument(
        "GRUCell::step (" + name_ + "): shape mismatch: x " +
        std::to_string(x.rows()) + "x" + std::to_string(x.cols()) + ", h " +
        std::to_string(h.rows()) + "x" + std::to_string(h.cols()) +
        ", cell in=" + std::to_string(in_) + " hid=" + std::to_string(hid_));
  const Tensor& xv = x.value();
  const Tensor& hv = h.value();
  const std::size_t rows = xv.rows();

  // z/r gate pre-activations in one (R x 2H) panel and one kernel call:
  // [x|h] times the stacked concatenated weights [[Wxz|Wxr];[Whz|Whr]].
  // One quarter the kernel launches of the per-gate formulation, and the
  // panel is written in a single pass.
  Tensor xh = TensorPool::acquire_uninit(rows, in_ + hid_);
  concat2(xh, xv, hv);
  Tensor w_zr = TensorPool::acquire_uninit(in_ + hid_, 2 * hid_);
  build_zr_panel(w_zr, wxz_.value(), wxr_.value(), whz_.value(),
                 whr_.value());
  Tensor a_zr = TensorPool::acquire_uninit(rows, 2 * hid_);
  broadcast_bias2(a_zr, bz_.value(), br_.value());
  matmul_acc(a_zr, xh, w_zr);
  TensorPool::release(std::move(xh));
  TensorPool::release(std::move(w_zr));
  Tensor an = TensorPool::acquire_uninit(rows, hid_);
  broadcast_bias(an, bn_.value());
  matmul_acc(an, xv, wxn_.value());

  // z and r gates, then the reset-scaled hidden state feeding the
  // candidate matmul — one fused backend pass (vector sigmoid on SIMD
  // backends; this is the hottest elementwise site in serving).
  const auto& backend = kernels::active();
  Tensor z = TensorPool::acquire_uninit(rows, hid_);
  Tensor r = TensorPool::acquire_uninit(rows, hid_);
  Tensor rh = TensorPool::acquire_uninit(rows, hid_);
  backend.gru_gates(z.flat().data(), r.flat().data(), rh.flat().data(),
                    a_zr.flat().data(), hv.flat().data(), rows, hid_);
  matmul_acc(an, rh, whn_.value());

  // Candidate + state blend fused: n = tanh(an), y = (1-z) n + z h.
  Tensor n = TensorPool::acquire_uninit(rows, hid_);
  Tensor y = TensorPool::acquire_uninit(rows, hid_);
  backend.gru_blend(n.flat().data(), y.flat().data(), an.flat().data(),
                    z.flat().data(), hv.flat().data(), y.size());
  TensorPool::release(std::move(a_zr));
  TensorPool::release(std::move(an));
  TensorPool::release(std::move(rh));

  if (grad_disabled()) {
    TensorPool::release(std::move(z));
    TensorPool::release(std::move(r));
    TensorPool::release(std::move(n));
    return Var(std::move(y));
  }

  // One tape node for the whole step.  Saved activations: z, r, n.
  return Var::make(
      std::move(y),
      {x, h, wxz_, whz_, bz_, wxr_, whr_, br_, wxn_, whn_, bn_},
      [x = Var(x), h = Var(h), wxz = wxz_, whz = whz_, bz = bz_,
       wxr = wxr_, whr = whr_, br = br_, wxn = wxn_, whn = whn_, bn = bn_,
       z = std::move(z), r = std::move(r),
       n = std::move(n)](const Tensor& g) mutable {
        const Tensor& xval = x.value();
        const Tensor& hval = h.value();
        const std::size_t nrows = g.rows(), hid = g.cols();

        // dan = g (1-z) (1-n^2);  daz = g (h-n) z (1-z);
        // rh2  = r h (recomputed — cheaper than storing a 4th tensor).
        // daz lands in the left block of the (R x 2H) d_zr panel so the
        // z/r gate grads flow through concatenated matmuls.
        Tensor dan = TensorPool::acquire_uninit(nrows, hid);
        Tensor d_zr = TensorPool::acquire_uninit(nrows, 2 * hid);
        Tensor rh2 = TensorPool::acquire_uninit(nrows, hid);
        for (std::size_t row = 0; row < nrows; ++row) {
          const double* grow = g.row(row).data();
          const double* zrow = z.row(row).data();
          const double* rrow = r.row(row).data();
          const double* nrow = n.row(row).data();
          const double* hrow = hval.row(row).data();
          double* danrow = dan.row(row).data();
          double* dzr = d_zr.row(row).data();
          double* rhrow = rh2.row(row).data();
          for (std::size_t c = 0; c < hid; ++c) {
            danrow[c] = grow[c] * (1.0 - zrow[c]) * (1.0 - nrow[c] * nrow[c]);
            dzr[c] = grow[c] * (hrow[c] - nrow[c]) * zrow[c] * (1.0 - zrow[c]);
            rhrow[c] = rrow[c] * hrow[c];
          }
        }

        // Candidate-gate parameter grads.
        if (bn.requires_grad()) colsum_acc(bn.grad_ref(), dan);
        if (wxn.requires_grad()) matmul_tn_acc(wxn.grad_ref(), xval, dan);
        if (whn.requires_grad()) matmul_tn_acc(whn.grad_ref(), rh2, dan);

        // drh = dan Whn^T routes the candidate grad into r and h;
        // dar = (drh h) r (1-r) fills the right block of d_zr.
        Tensor drh = TensorPool::acquire(nrows, hid);
        matmul_nt_acc(drh, dan, whn.value());
        for (std::size_t row = 0; row < nrows; ++row) {
          const double* drhrow = drh.row(row).data();
          const double* rrow = r.row(row).data();
          const double* hrow = hval.row(row).data();
          double* dzr = d_zr.row(row).data() + hid;
          for (std::size_t c = 0; c < hid; ++c)
            dzr[c] = drhrow[c] * hrow[c] * rrow[c] * (1.0 - rrow[c]);
        }

        if (bz.requires_grad()) colsum_block_acc(bz.grad_ref(), d_zr, 0);
        if (br.requires_grad()) colsum_block_acc(br.grad_ref(), d_zr, hid);

        // Stacked z/r weight grads: [x|h]^T d_zr is one ((in+hid) x 2H)
        // panel holding all four gate-weight gradients as sub-blocks.
        const std::size_t in_dim = xval.cols();
        {
          Tensor xh2 = TensorPool::acquire_uninit(nrows, in_dim + hid);
          concat2(xh2, xval, hval);
          Tensor dw = TensorPool::acquire(in_dim + hid, 2 * hid);
          matmul_tn_acc(dw, xh2, d_zr);
          if (wxz.requires_grad()) add_block(wxz.grad_ref(), dw, 0, 0);
          if (wxr.requires_grad()) add_block(wxr.grad_ref(), dw, 0, hid);
          if (whz.requires_grad()) add_block(whz.grad_ref(), dw, in_dim, 0);
          if (whr.requires_grad()) add_block(whr.grad_ref(), dw, in_dim, hid);
          TensorPool::release(std::move(xh2));
          TensorPool::release(std::move(dw));
        }

        if (x.requires_grad() || h.requires_grad()) {
          // d[x|h] = d_zr [[Wxz|Wxr];[Whz|Whr]]^T in one call, split back
          // into the input gradients.
          Tensor wzr2 = TensorPool::acquire_uninit(in_dim + hid, 2 * hid);
          build_zr_panel(wzr2, wxz.value(), wxr.value(), whz.value(),
                         whr.value());
          Tensor dxh = TensorPool::acquire(nrows, in_dim + hid);
          matmul_nt_acc(dxh, d_zr, wzr2);
          if (x.requires_grad()) {
            Tensor& xg = x.grad_ref();
            add_block(xg, dxh, 0, 0);
            matmul_nt_acc(xg, dan, wxn.value());
          }
          if (h.requires_grad()) {
            Tensor& hg = h.grad_ref();
            add_block(hg, dxh, 0, in_dim);
            const auto gf = g.flat();
            const auto zf = z.flat(), rf = r.flat();
            const auto drhf = drh.flat();
            auto hgf = hg.flat();
            // dh += g z (direct blend term) + drh r (through the reset).
            for (std::size_t i = 0; i < hgf.size(); ++i)
              hgf[i] += gf[i] * zf[i] + drhf[i] * rf[i];
          }
          TensorPool::release(std::move(wzr2));
          TensorPool::release(std::move(dxh));
        }

        TensorPool::release(std::move(dan));
        TensorPool::release(std::move(d_zr));
        TensorPool::release(std::move(rh2));
        TensorPool::release(std::move(drh));
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
  // The same kernel sequence as step(), on raw pointers; the blend
  // writes y over h element by element (gru_blend allows y == h).
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
  if (whz.requires_grad()) add_block(whz.grad_ref(), dw_hzr, 0, 0);
  if (whr.requires_grad()) add_block(whr.grad_ref(), dw_hzr, 0, hid_);
  if (whn.requires_grad()) whn.grad_ref().add_inplace(dw_hn);
}

void GRUCell::project_inputs_backward(const Tensor& x, const Tensor& d_zr,
                                      const Tensor& d_n,
                                      Tensor* x_grad) const {
  Var wxz = wxz_, wxr = wxr_, wxn = wxn_, bz = bz_, br = br_, bn = bn_;
  if (bz.requires_grad()) colsum_block_acc(bz.grad_ref(), d_zr, 0);
  if (br.requires_grad()) colsum_block_acc(br.grad_ref(), d_zr, hid_);
  if (bn.requires_grad()) colsum_acc(bn.grad_ref(), d_n);
  Tensor dw = TensorPool::acquire(in_, 2 * hid_);
  matmul_tn_acc(dw, x, d_zr);
  if (wxz.requires_grad()) add_block(wxz.grad_ref(), dw, 0, 0);
  if (wxr.requires_grad()) add_block(wxr.grad_ref(), dw, 0, hid_);
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
