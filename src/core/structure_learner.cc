#include "core/structure_learner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <unordered_map>

#include "util/hash.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace snorkel {

namespace {

/// Mutable optimization state for all n per-LF conditionals; kept across ε
/// values during a warm-started sweep.
struct ThetaState {
  // pair_weights[j][k]: weight coupling Λ_j to Λ_k in LF j's conditional.
  std::vector<std::vector<double>> pair_weights;
  std::vector<double> acc;
  std::vector<double> lab;

  explicit ThetaState(size_t n)
      : pair_weights(n, std::vector<double>(n, 0.0)),
        acc(n, 1.0),
        lab(n, 0.0) {}
};

/// Subsampled view of the label matrix, folded into distinct vote patterns.
/// Each pattern is a CSR span into the (caller-owned) matrix — the first
/// sampled row with that pattern, so no row is copied — with its
/// multiplicity and vote counts. Patterns keep the order of their first
/// occurrence: when every sampled row is distinct, every weight is 1 and
/// the fit visits the rows exactly as an unfolded sample would.
struct Workset {
  std::vector<LabelMatrix::RowSpan> rows;
  std::vector<double> weight;
  std::vector<int> c_pos;
  std::vector<int> c_neg;
  /// Sampled rows (the sum of the weights): the gradient normalizer.
  double num_sampled = 0.0;
};

struct RowSpanHash {
  size_t operator()(const LabelMatrix::RowSpan& row) const {
    uint64_t h = row.size();
    for (const auto& e : row) {
      h = HashCombine(h, (uint64_t{e.lf} << 32) |
                             static_cast<uint32_t>(e.label));
    }
    return static_cast<size_t>(h);
  }
};

struct RowSpanEqual {
  bool operator()(const LabelMatrix::RowSpan& a,
                  const LabelMatrix::RowSpan& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

Workset BuildWorkset(const LabelMatrix& matrix, size_t max_rows,
                     uint64_t seed) {
  Workset ws;
  size_t m = matrix.num_rows();
  std::vector<size_t> indices;
  if (m > max_rows) {
    Rng rng(seed);
    indices = rng.SampleWithoutReplacement(m, max_rows);
  } else {
    indices.resize(m);
    for (size_t i = 0; i < m; ++i) indices[i] = i;
  }
  ws.num_sampled = static_cast<double>(indices.size());
  // Rows are sorted by LF, so equal patterns have equal spans.
  std::unordered_map<LabelMatrix::RowSpan, size_t, RowSpanHash, RowSpanEqual>
      pattern_of;
  pattern_of.reserve(indices.size());
  for (size_t i : indices) {
    LabelMatrix::RowSpan row = matrix.row(i);
    auto [it, inserted] = pattern_of.emplace(row, ws.rows.size());
    if (!inserted) {
      ws.weight[it->second] += 1.0;
      continue;
    }
    int cp = 0;
    int cn = 0;
    for (const auto& e : row) {
      if (e.label > 0) {
        ++cp;
      } else {
        ++cn;
      }
    }
    ws.rows.push_back(row);
    ws.weight.push_back(1.0);
    ws.c_pos.push_back(cp);
    ws.c_neg.push_back(cn);
  }
  return ws;
}

/// Runs `epochs` proximal-gradient epochs on LF j's conditional
/// p(Λ_j | Λ_{\j}) with ℓ1 penalty `epsilon` on the pair weights. Each
/// pattern's gradient terms count once per sampled row it stands for.
void FitConditional(const Workset& ws, size_t n, size_t j, double epsilon,
                    int epochs, double lr, double mean_acc_weight,
                    ThetaState* state) {
  std::vector<double>& theta = state->pair_weights[j];
  const double m = ws.num_sampled;
  const size_t num_patterns = ws.rows.size();
  std::vector<double> grad(n, 0.0);

  // LF j's own vote and the pilot posterior over the latent label, which
  // excludes that vote, do not depend on θ: compute them once per pattern.
  // λ slots are ordered [abstain, +1, -1].
  std::vector<int> obs_idx(num_patterns, 0);
  std::vector<double> pi_pos(num_patterns);
  for (size_t i = 0; i < num_patterns; ++i) {
    for (const auto& e : ws.rows[i]) {
      if (e.lf == j) obs_idx[i] = e.label > 0 ? 1 : 2;
    }
    int cp = ws.c_pos[i] - (obs_idx[i] == 1 ? 1 : 0);
    int cn = ws.c_neg[i] - (obs_idx[i] == 2 ? 1 : 0);
    pi_pos[i] = Sigmoid(mean_acc_weight * static_cast<double>(cp - cn));
  }

  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_base = 0.0;  // Contribution shared by every abstaining k.
    double grad_acc = 0.0;
    double grad_lab = 0.0;
    double theta_total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      if (k != j) theta_total += theta[k];
    }

    for (size_t i = 0; i < num_patterns; ++i) {
      const auto& row = ws.rows[i];
      const double w = ws.weight[i];
      double t_pos = 0.0;
      double t_neg = 0.0;
      double sum_entries = 0.0;
      for (const auto& e : row) {
        if (e.lf == j) continue;
        sum_entries += theta[e.lf];
        if (e.label > 0) {
          t_pos += theta[e.lf];
        } else {
          t_neg += theta[e.lf];
        }
      }
      double t_abstain = theta_total - sum_entries;

      // q(λ | y) for y in {+1, -1}.
      const int obs = obs_idx[i];
      double q[2][3];
      double r[2];
      for (int yi = 0; yi < 2; ++yi) {
        double acc_pos = yi == 0 ? state->acc[j] : 0.0;
        double acc_neg = yi == 0 ? 0.0 : state->acc[j];
        double s0 = t_abstain;
        double sp = state->lab[j] + acc_pos + t_pos;
        double sn = state->lab[j] + acc_neg + t_neg;
        double hi = std::max({s0, sp, sn});
        double e0 = std::exp(s0 - hi);
        double ep = std::exp(sp - hi);
        double en = std::exp(sn - hi);
        double z = e0 + ep + en;
        q[yi][0] = e0 / z;
        q[yi][1] = ep / z;
        q[yi][2] = en / z;
        r[yi] = (yi == 0 ? pi_pos[i] : 1.0 - pi_pos[i]) * q[yi][obs];
      }
      double rz = r[0] + r[1];
      if (rz <= 0.0) continue;
      r[0] /= rz;
      r[1] /= rz;

      // G_{λ'} = Σ_y r(y) [1{obs = λ'} - q(λ' | y)] for λ' in the 3 slots.
      double g[3];
      for (int s = 0; s < 3; ++s) {
        g[s] = r[0] * ((obs == s ? 1.0 : 0.0) - q[0][s]) +
               r[1] * ((obs == s ? 1.0 : 0.0) - q[1][s]);
      }
      grad_base += w * g[0];
      for (const auto& e : row) {
        if (e.lf == j) continue;
        int s = e.label > 0 ? 1 : 2;
        grad[e.lf] += w * (g[s] - g[0]);
      }
      // Accuracy factor fires when λ = y; the propensity factor when λ != ∅.
      grad_acc += w * (r[0] * ((obs == 1 ? 1.0 : 0.0) - q[0][1]) +
                       r[1] * ((obs == 2 ? 1.0 : 0.0) - q[1][2]));
      grad_lab += w * (r[0] * ((obs != 0 ? 1.0 : 0.0) - (1.0 - q[0][0])) +
                       r[1] * ((obs != 0 ? 1.0 : 0.0) - (1.0 - q[1][0])));
    }

    for (size_t k = 0; k < n; ++k) {
      if (k == j) continue;
      double step = lr * (grad[k] + grad_base) / m;
      theta[k] = SoftThreshold(theta[k] + step, lr * epsilon);
      theta[k] = Clip(theta[k], -4.0, 4.0);
    }
    state->acc[j] = Clip(state->acc[j] + lr * grad_acc / m, -4.0, 4.0);
    state->lab[j] = Clip(state->lab[j] + lr * grad_lab / m, -6.0, 6.0);
  }
}

/// Fits all n per-LF conditionals concurrently. Each conditional is an
/// independent regression writing only its own slice of `state`
/// (pair_weights[j], acc[j], lab[j]), so the schedule cannot affect the
/// result — the paper's "n independent pseudolikelihood problems" structure
/// made literal.
void FitAllConditionals(const Workset& ws, size_t n, double epsilon,
                        int epochs, double lr, double mean_acc_weight,
                        int num_threads, ThetaState* state) {
  ScopedPool pool(num_threads);
  pool->ParallelFor(0, n, [&](size_t j) {
    FitConditional(ws, n, j, epsilon, epochs, lr, mean_acc_weight, state);
  });
}

std::vector<CorrelationPair> SelectPairs(const ThetaState& state, size_t n,
                                         double epsilon) {
  std::vector<CorrelationPair> selected;
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = j + 1; k < n; ++k) {
      if (std::fabs(state.pair_weights[j][k]) >= epsilon ||
          std::fabs(state.pair_weights[k][j]) >= epsilon) {
        selected.push_back(CorrelationPair{j, k});
      }
    }
  }
  return selected;
}

}  // namespace

StructureLearner::StructureLearner(StructureLearnerOptions options)
    : options_(options) {}

Result<std::vector<CorrelationPair>> StructureLearner::LearnStructure(
    const LabelMatrix& matrix) const {
  return LearnStructure(matrix, options_.epsilon);
}

Result<std::vector<CorrelationPair>> StructureLearner::LearnStructure(
    const LabelMatrix& matrix, double epsilon) const {
  if (matrix.cardinality() != 2) {
    return Status::InvalidArgument(
        "structure learning supports binary matrices");
  }
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  size_t n = matrix.num_lfs();
  if (n < 2) return std::vector<CorrelationPair>{};

  Workset ws = BuildWorkset(matrix, options_.max_rows, options_.seed);
  ThetaState state(n);
  FitAllConditionals(ws, n, epsilon, options_.epochs, options_.learning_rate,
                     options_.mean_acc_weight, options_.num_threads, &state);
  return SelectPairs(state, n, epsilon);
}

Result<std::vector<StructureSweepPoint>> StructureLearner::Sweep(
    const LabelMatrix& matrix, const std::vector<double>& epsilons) const {
  if (matrix.cardinality() != 2) {
    return Status::InvalidArgument(
        "structure learning supports binary matrices");
  }
  for (double eps : epsilons) {
    if (eps <= 0.0) {
      return Status::InvalidArgument("epsilon values must be positive");
    }
  }
  size_t n = matrix.num_lfs();
  std::vector<double> sorted = epsilons;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<StructureSweepPoint> sweep;
  if (n < 2) {
    for (double eps : sorted) sweep.push_back({eps, 0});
    return sweep;
  }

  Workset ws = BuildWorkset(matrix, options_.max_rows, options_.seed);
  ThetaState state(n);
  bool first = true;
  for (double eps : sorted) {
    int epochs = first ? options_.epochs : options_.sweep_epochs;
    first = false;
    FitAllConditionals(ws, n, eps, epochs, options_.learning_rate,
                       options_.mean_acc_weight, options_.num_threads, &state);
    sweep.push_back({eps, SelectPairs(state, n, eps).size()});
  }
  return sweep;
}

size_t StructureLearner::SelectElbowIndex(
    const std::vector<StructureSweepPoint>& sweep) {
  if (sweep.size() < 3) return 0;
  // Curvature of log(1 + count): the count curve "explodes" past the elbow
  // (§3.2.2), and log scale puts the maximum-curvature point at the knee
  // just before the explosion rather than inside it.
  size_t best = 1;
  double best_curvature = -1.0;
  for (size_t i = 1; i + 1 < sweep.size(); ++i) {
    double prev = std::log1p(static_cast<double>(sweep[i - 1].num_correlations));
    double cur = std::log1p(static_cast<double>(sweep[i].num_correlations));
    double next = std::log1p(static_cast<double>(sweep[i + 1].num_correlations));
    double curvature = std::fabs(next - 2.0 * cur + prev);
    if (curvature > best_curvature) {
      best_curvature = curvature;
      best = i;
    }
  }
  return best;
}

}  // namespace snorkel
