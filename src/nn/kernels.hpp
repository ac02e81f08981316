// Runtime-dispatched SIMD kernel backends for the dense hot path.
//
// Every dense-algebra and elementwise primitive behind nn::Tensor,
// nn::ops and the GRU step routes through one Backend of raw
// function pointers, selected once per process:
//
//   * scalar   — the pre-SIMD reference kernels, unchanged code, same
//                blocked accumulation order.  Bitwise-stable: this
//                backend reproduces pre-backend-layer outputs exactly.
//   * avx2+fma — x86-64 AVX2/FMA register-tiled kernels + vectorized
//                exp/sigmoid/tanh.  Linear elementwise kernels are
//                bitwise-identical to scalar (same per-element IEEE
//                ops); matmul kernels keep the scalar per-cell
//                accumulation order but contract mul+add into FMA, and
//                the transcendentals use a Cephes-style polynomial, so
//                those results are pinned to a small-ulp bound instead
//                (tests/nn_kernels_test.cpp, DESIGN.md §K).
//
// Dispatch: the best backend the CPU supports wins (cpuid AVX2+FMA on
// x86-64, scalar otherwise — aarch64 runs scalar).  RNX_SIMD=scalar forces
// the reference backend; RNX_SIMD=native forces auto-detection (and is
// the explicit spelling of the default); any other value throws.  The
// decision is made once, on first use, and is immutable for the
// process — except for ScopedBackendOverride, the thread-local hook the
// parity tests and bench_nn_ops use to run both backends in one
// process.
//
// Alignment contract: Tensor buffers are 64-byte aligned (kTensorAlign)
// so vector kernels never split a cache line at the base pointer.  Row
// starts are NOT aligned for arbitrary cols, so kernels use unaligned
// loads; the aligned base still keeps hot panels cache-line-tidy.
// Kernels accept any size >= 0 and any pointers for n == 0.
#pragma once

#include <cstddef>

namespace rnx::nn::kernels {

enum class Isa { kScalar, kAvx2Fma };

/// Stable lowercase ISA tag for logs / BENCH json ("scalar",
/// "avx2+fma").
[[nodiscard]] const char* to_string(Isa isa) noexcept;

/// One kernel backend.  All matrices are dense row-major double; `acc`
/// kernels accumulate into c.  Shapes follow nn::Tensor's matmul
/// contracts (tensor.hpp).
struct Backend {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";

  // -- dense: C (n x m) views, reduction length k -----------------------
  /// c += a (n x k) * b (k x m)
  void (*matmul_acc)(double* c, const double* a, const double* b,
                     std::size_t n, std::size_t k, std::size_t m);
  /// c (n x m) += a^T * b, a is (k x n), b is (k x m)
  void (*matmul_tn_acc)(double* c, const double* a, const double* b,
                        std::size_t n, std::size_t k, std::size_t m);
  /// c (n x m) += a (n x k) * b^T, b is (m x k)
  void (*matmul_nt_acc)(double* c, const double* a, const double* b,
                        std::size_t n, std::size_t k, std::size_t m);

  // -- elementwise over flat arrays of length n -------------------------
  void (*vadd)(double* y, const double* a, const double* b, std::size_t n);
  void (*vsub)(double* y, const double* a, const double* b, std::size_t n);
  void (*vmul)(double* y, const double* a, const double* b, std::size_t n);
  /// y += a .* b (elementwise multiply-accumulate; mul then add, so it
  /// is bitwise-stable across backends)
  void (*vmacc)(double* y, const double* a, const double* b, std::size_t n);
  /// y += alpha * x
  void (*vaxpy)(double* y, double alpha, const double* x, std::size_t n);
  /// y = alpha * a + beta
  void (*vaffine)(double* y, const double* a, double alpha, double beta,
                  std::size_t n);
  void (*vrelu)(double* y, const double* a, std::size_t n);
  void (*vsigmoid)(double* y, const double* a, std::size_t n);
  void (*vtanh)(double* y, const double* a, std::size_t n);

  // -- GRU gate and blend passes (GRUCell::step_projected) --------------
  /// Gate pass over one (rows x 2*hid) pre-activation panel a_zr:
  /// z = sigmoid(a_zr[:, :hid]), r = sigmoid(a_zr[:, hid:]), rh = r .* h.
  /// z/r/rh/h are (rows x hid) contiguous.
  void (*gru_gates)(double* z, double* r, double* rh, const double* a_zr,
                    const double* h, std::size_t rows, std::size_t hid);
  /// Blend pass over flat arrays of length n: nout = tanh(an),
  /// y = (1 - z) .* nout + z .* h.  Elementwise, so y may alias h (the
  /// in-place inference step, GRUCell::step_projected).
  void (*gru_blend)(double* nout, double* y, const double* an,
                    const double* z, const double* h, std::size_t n);
};

/// The reference backend (always available).
[[nodiscard]] const Backend& scalar_backend() noexcept;

/// The best SIMD backend this binary was compiled with AND this CPU
/// supports, or nullptr when only scalar is available.
[[nodiscard]] const Backend* simd_backend() noexcept;

/// The backend every nn kernel call dispatches through: the thread's
/// ScopedBackendOverride if one is active, else the process-wide choice
/// resolved once from RNX_SIMD + CPU detection.  Throws
/// std::runtime_error on an invalid RNX_SIMD value (first call only).
[[nodiscard]] const Backend& active();

/// Why the process-wide backend was chosen — e.g. "auto-detected: cpu
/// supports avx2+fma" or "forced by RNX_SIMD=scalar".  Resolves the
/// dispatch if it has not run yet.
[[nodiscard]] const char* dispatch_reason();

/// Pin this thread to a specific backend while alive (parity tests and
/// scalar-vs-SIMD benches; nests, restores the previous override).
class ScopedBackendOverride {
 public:
  explicit ScopedBackendOverride(const Backend& backend) noexcept;
  ~ScopedBackendOverride();
  ScopedBackendOverride(const ScopedBackendOverride&) = delete;
  ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

 private:
  const Backend* prev_;
};

namespace detail {
/// The AVX2+FMA backend: nullptr when not compiled in or when the CPU
/// lacks the feature set.  Defined in kernels_avx2.cpp so only that file
/// needs ISA compile flags.
[[nodiscard]] const Backend* avx2_backend() noexcept;
}  // namespace detail

}  // namespace rnx::nn::kernels
