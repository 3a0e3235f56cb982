//===- Agent.h - Actor-critic agent ------------------------------*- C++-*-===//
///
/// \file
/// The actor-critic agent (Sec. V): sampling actions from the policy
/// heads under the environment's masks, and re-evaluating stored actions
/// during PPO updates (log-probability, entropy, value). The
/// multi-discrete log-probability of a step is the sum over its active
/// heads.
///
/// Acting and the PPO update's evaluateBatch run the same forward pass
/// (PolicyNet::forwardLogits, ValueNet::forwardValues), so the log-prob
/// and value a rollout stores are exactly what the update recomputes
/// before any parameter changes.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_RL_AGENT_H
#define MLIRRL_RL_AGENT_H

#include "rl/PolicyNet.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace mlirrl {

/// Element type greedy policy inference runs in. Training, sampling
/// rollouts and the critic always run in F64 (the bitwise-deterministic
/// path); F32 runs greedy actBatch/act calls' forward pass in float, on
/// a packed float copy of the policy parameters and the float SIMD GEMM
/// kernels.
enum class InferenceDtype {
  F64, ///< Default: every forward pass in double.
  F32, ///< Greedy inference on the packed float policy.
};

/// The actor-critic pair.
class ActorCritic {
public:
  ActorCritic(const EnvConfig &Env, unsigned FeatureSize, NetConfig Net,
              uint64_t Seed);

  /// A sampled step: the action plus the data PPO stores.
  struct Sampled {
    AgentAction Action;
    double LogProb = 0.0;
    double Value = 0.0;
  };

  /// Samples an action (greedy = argmax for evaluation rollouts).
  Sampled act(const Observation &Obs, Rng &Rng, bool Greedy = false) const;

  /// Samples one action per observation through the batched policy
  /// path: one GEMM per network layer for the whole batch instead of
  /// one GEMV per observation. Rngs[i] is observation i's private
  /// stream; each row consumes only its own stream, in the same order
  /// as act(), so element i of the result is bitwise-identical to
  /// act(*Batch[i], *Rngs[i], Greedy) for any batch width.
  std::vector<Sampled> actBatch(const std::vector<const Observation *> &Batch,
                                const std::vector<Rng *> &Rngs,
                                bool Greedy = false) const;

  /// Batched re-evaluation of stored (observation, action) pairs for the
  /// PPO update: per-row log-probs, entropies and values as [Bx1]
  /// tensors, computed with one GEMM per layer for the whole minibatch.
  /// Heads inactive for a given row contribute exact zeros (and no
  /// gradient) to that row.
  ///
  /// The actor's and the critic's forward run as two tasks on the pool
  /// installed with nn::setGemmPool, or one after the other without
  /// one. The networks share no parameter and no scratch, and both only
  /// read the gathered feature rows. The three tensors hang off one
  /// trunk node over every parameter. Their backwards write the heads'
  /// logit gradients or the values' gradients to the tape the forward
  /// recorded and mark their network reached. The trunk's backward then
  /// runs the explicit backward of each reached network, as two tasks
  /// on the pool when the loss reached both, so a loss over one
  /// network's outputs leaves the other's gradients untouched. Results
  /// are bitwise the same with or without a pool. The graph owns the
  /// tape and must not outlive the agent.
  struct BatchEvaluation {
    nn::Tensor LogProb; // B x 1
    nn::Tensor Entropy; // B x 1
    nn::Tensor Value;   // B x 1
  };
  BatchEvaluation
  evaluateBatch(const std::vector<const Observation *> &Obs,
                const std::vector<const AgentAction *> &Actions) const;

  std::vector<nn::Tensor> parameters() const;

  const EnvConfig &getEnvConfig() const { return Env; }

  /// Selects the greedy-inference element type (default F64). F32 only
  /// changes the element type greedy act/actBatch calls compute in;
  /// every other path is untouched.
  void setInferenceDtype(InferenceDtype Dtype);
  InferenceDtype inferenceDtype() const { return Inference; }

  /// Drops the cached packed f32 policy. Must be called after any
  /// mutation of the policy parameters (optimizer step, checkpoint
  /// restore); the next greedy f32 query repacks from the fresh
  /// doubles. Cheap no-op when nothing is cached.
  ///
  /// Publication-safe against concurrent packedPolicy() rebuilds: the
  /// parameter version is bumped before the cached snapshot is
  /// dropped, and packedPolicy() re-reads the version after packing --
  /// a rebuild that raced this invalidation repacks from the fresh
  /// parameters instead of publishing the stale pack it just built.
  void invalidateInferenceCache();

  /// Monotone counter bumped by every invalidateInferenceCache() call
  /// (i.e. every parameter mutation). Exposed so a server can stamp
  /// responses with the policy version they were computed under and so
  /// tests can assert reloads were observed.
  uint64_t parameterVersion() const {
    return ParamVersion.load(std::memory_order_acquire);
  }

private:
  /// The packed float policy parameters, packing them on first use
  /// (thread-safe; returns a shared snapshot so a concurrent
  /// invalidation cannot free it mid-forward).
  std::shared_ptr<const nn::PackedF32> packedPolicy() const;

  EnvConfig Env;
  PolicyNet Policy;
  ValueNet Value;
  InferenceDtype Inference = InferenceDtype::F64;
  /// Parameter version: bumped (release) by invalidateInferenceCache
  /// after the parameters changed, read (acquire) by packedPolicy
  /// before and after packing. Starts at 1 so a PackedVersion of 0
  /// always reads as stale.
  mutable std::atomic<uint64_t> ParamVersion{1};
  mutable std::mutex PackLock;
  mutable std::shared_ptr<const nn::PackedF32> Packed;
  /// The ParamVersion the cached pack was built from (guarded by
  /// PackLock).
  mutable uint64_t PackedVersion = 0;
};

} // namespace mlirrl

#endif // MLIRRL_RL_AGENT_H
