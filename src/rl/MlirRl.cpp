//===- MlirRl.cpp ---------------------------------------------------------===//

#include "rl/MlirRl.h"

#include "env/Featurizer.h"

using namespace mlirrl;

MlirRlOptions MlirRlOptions::laptop() {
  MlirRlOptions O;
  O.Env = EnvConfig::laptop();
  O.Net.LstmHidden = 48;
  O.Net.BackboneHidden = 48;
  O.Net.BackboneDepth = 3;
  O.Ppo.SamplesPerIteration = 16;
  O.Ppo.MinibatchSize = 32;
  O.Iterations = 60;
  return O;
}

MlirRl::MlirRl(MlirRlOptions Options)
    : Options(Options), Run(Options.Machine, Options.Runner),
      // The memo is only sound over a deterministic inner evaluator:
      // with noise on, every entry would freeze one draw, so the
      // trainer falls back to the bare Runner.
      Memo(Options.Runner.Noise ? nullptr
                                : std::make_unique<CachingEvaluator>(Run)),
      Agent(Options.Env, Featurizer(Options.Env).featureSize(), Options.Net,
            Options.Seed),
      Trainer(Agent, evaluator(), Options.Ppo) {
  Agent.setInferenceDtype(Options.Inference);
}

std::vector<PpoIterationStats> MlirRl::train(
    const std::vector<Module> &Dataset,
    const std::function<void(unsigned, const PpoIterationStats &)>
        &PerIteration) {
  std::vector<PpoIterationStats> History;
  History.reserve(Options.Iterations);
  for (unsigned I = 0; I < Options.Iterations; ++I) {
    PpoIterationStats Stats = Trainer.trainIteration(Dataset);
    if (PerIteration)
      PerIteration(I, Stats);
    History.push_back(Stats);
  }
  return History;
}

double MlirRl::optimize(const Module &M, ModuleSchedule *Schedule) {
  return Trainer.evaluate(M, Schedule);
}
