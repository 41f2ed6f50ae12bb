#include "engine/strategy.h"

#include "hypergraph/hypergraph.h"

namespace fmmsw {

const std::vector<StrategyCard>& TriangleCountLadder() {
  static const std::vector<StrategyCard> ladder = {
      {"mm-bitsliced", true, MmKernel::kBitSliced, 3.0, 1},
      {"wcoj", false, MmKernel::kBoolean, 3.0, 0},
  };
  return ladder;
}

const std::vector<StrategyCard>& TriangleBooleanLadder() {
  static const std::vector<StrategyCard> ladder = {
      {"mm-boolean", true, MmKernel::kBoolean, 3.0, 1},
      {"wcoj", false, MmKernel::kBoolean, 3.0, 0},
  };
  return ladder;
}

const std::vector<StrategyCard>& GenericBooleanLadder() {
  static const std::vector<StrategyCard> ladder = {
      {"elimination", false, MmKernel::kBoolean, 3.0, 2},
      {"best-td", false, MmKernel::kBoolean, 3.0, 1},
      {"wcoj", false, MmKernel::kBoolean, 3.0, 0},
  };
  return ladder;
}

bool IsTriangleQuery(const Hypergraph& h) {
  const Hypergraph t = Hypergraph::Triangle();
  if (h.vertices() != t.vertices()) return false;
  if (h.edges().size() != t.edges().size()) return false;
  for (size_t i = 0; i < t.edges().size(); ++i) {
    if (h.edges()[i] != t.edges()[i]) return false;
  }
  return true;
}

}  // namespace fmmsw
