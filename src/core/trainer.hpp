// Training engine: Adam over per-sample MSE on z-scored log delay, with
// gradient accumulation across a small batch of samples, global-norm
// clipping and multiplicative learning-rate decay — the recipe used by
// the RouteNet reference implementation, scaled to CPU.
//
// There is one training loop, over a data::SampleSource, and two entry
// points into it: `fit` runs it over the in-memory dataset under a
// per-epoch Fisher-Yates reshuffle, `fit_stream` over any source in the
// source's own order.  The loop owns resume, the per-step stop poll and
// checkpoint, lr decay, validation and early stop for both.
//
// Each optimizer step is data-parallel over the accumulation batch
// (DESIGN.md §T): each lane owns a full model replica (weights synced
// after every step), computes forward+backward for its samples, and
// parks the per-sample gradients in per-sample slots.  At the batch
// boundary the slots are merged into the primary model's gradients in
// sample order, scaled by the number of samples that actually
// contributed (so a trailing partial batch gets the same effective
// learning rate as a full one), clipped, and stepped.  Because every
// per-sample gradient is computed from identical weights and the merge
// order is fixed, the trained weights are bitwise-identical for ANY
// thread count, including the serial path.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/plan_cache.hpp"
#include "data/dataset.hpp"
#include "nn/optimizer.hpp"
#include "util/thread_pool.hpp"

namespace rnx::data {
class SampleSource;
}

namespace rnx::core {

struct TrainConfig {
  std::size_t epochs = 25;
  std::size_t batch_samples = 8;   ///< samples per optimizer step
  double lr = 1e-3;
  double lr_decay = 0.98;          ///< multiplicative, per epoch
  double clip_norm = 10.0;         ///< global gradient-norm ceiling
  std::uint64_t min_delivered = 10;  ///< label-quality threshold
  PredictionTarget target = PredictionTarget::kDelay;
  std::uint64_t seed = 7;          ///< shuffling stream
  std::size_t patience = 0;        ///< early stop after this many epochs
                                   ///< without val improvement (0 = off)
  std::size_t threads = 1;         ///< data-parallel lanes (0 or 1 = serial)
  bool use_plan_cache = true;      ///< memoize build_plan across epochs
  bool verbose = true;

  // -- crash-safe checkpointing (DESIGN.md §R) ------------------------
  /// Directory for the .rnxc checkpoint; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Optimizer steps between checkpoints (0 = end-of-epoch only).
  std::size_t checkpoint_every = 1;
  /// Resume from checkpoint_dir's checkpoint if one exists.  The
  /// checkpointed config digest and scaler must match this run's
  /// (CheckpointError otherwise); the resumed trajectory is then
  /// bitwise-identical to the uninterrupted one.
  bool resume = false;
  /// Polled after every optimizer step; returning true finalizes one
  /// last checkpoint (if enabled) and exits fit cleanly with
  /// Trainer::interrupted() set — how SIGINT/SIGTERM stop training
  /// without losing the batch in flight.
  std::function<bool()> stop_requested;
};

struct EpochRecord {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double val_loss = 0.0;  ///< NaN when no validation set was given
  double seconds = 0.0;
};

class Trainer {
 public:
  Trainer(Model& model, TrainConfig cfg);

  /// Train on `train`, reshuffled every epoch from cfg.seed; optionally
  /// track loss on `val` each epoch.  Returns the per-epoch history.
  std::vector<EpochRecord> fit(const data::Dataset& train,
                               const data::Scaler& scaler,
                               const data::Dataset* val = nullptr);

  /// Streaming fit (DESIGN.md §D): consume `train` pass-by-pass from a
  /// SampleSource — e.g. a sharded on-disk store larger than RAM — with
  /// peak sample residency bounded by the batch size plus the source's
  /// prefetch window.  Sample ORDER is the source's (the source owns
  /// shuffling); given the same sample sequence, updates are
  /// bitwise-identical to the in-memory path for any thread count.
  /// Address-keyed plan caching engages only when the source guarantees
  /// stable sample addresses; for transient streaming samples the model
  /// runs cache-detached (caching a recycled address would serve a
  /// stale plan).
  std::vector<EpochRecord> fit_stream(data::SampleSource& train,
                                      const data::Scaler& scaler,
                                      data::SampleSource* val = nullptr);

  /// Mean per-sample loss without building the tape (inference mode)
  /// over one pass of `src`, parallel over the trainer's lanes and
  /// windowed so residency stays bounded.  Losses are summed in sample
  /// order, so the result does not depend on the lane count or window.
  [[nodiscard]] double evaluate_loss(data::SampleSource& src,
                                     const data::Scaler& scaler) const;
  /// The same over an in-memory dataset, in index order.
  [[nodiscard]] double evaluate_loss(const data::Dataset& ds,
                                     const data::Scaler& scaler) const;

  /// Loss for one sample: MSE between the prediction and the z-scored
  /// log label (delay or jitter, per `target`) over the label-valid
  /// paths.  Undefined Var when the sample has no valid labels (caller
  /// must skip).
  [[nodiscard]] static nn::Var sample_loss(
      const Model& model, const data::Sample& sample,
      const data::Scaler& scaler, std::uint64_t min_delivered,
      PredictionTarget target = PredictionTarget::kDelay);

  /// True when the last fit/fit_stream returned because stop_requested
  /// fired (vs. running to completion) — the tools map this to the
  /// conventional 128+signum exit code.
  [[nodiscard]] bool interrupted() const noexcept { return interrupted_; }

 private:
  class ShuffledSource;  ///< fit's epoch order (trainer.cpp)

  /// The training loop.  `shuffled` is fit's source (== &train) and
  /// null for fit_stream; it selects the checkpoint's cursor fields.
  std::vector<EpochRecord> run(data::SampleSource& train,
                               ShuffledSource* shuffled,
                               const data::Scaler& scaler,
                               data::SampleSource* val);

  Model& model_;
  TrainConfig cfg_;
  nn::Adam opt_;
  mutable std::optional<util::ThreadPool> pool_;  ///< lanes > 1 only
  bool interrupted_ = false;
};

}  // namespace rnx::core
