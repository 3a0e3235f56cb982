//===- Tensor.cpp ---------------------------------------------------------===//

#include "nn/Tensor.h"

#include <cassert>
#include <unordered_set>

using namespace mlirrl;
using namespace mlirrl::nn;

Tensor Tensor::zeros(unsigned Rows, unsigned Cols) {
  // Grad stays unallocated until backward() reaches the node: a
  // forward-only graph never touches it.
  auto Node = std::make_shared<TensorNode>();
  Node->Rows = Rows;
  Node->Cols = Cols;
  Node->Data.assign(static_cast<size_t>(Rows) * Cols, 0.0);
  return Tensor(std::move(Node));
}

Tensor Tensor::fromData(unsigned Rows, unsigned Cols,
                        std::vector<double> Values) {
  assert(Values.size() == static_cast<size_t>(Rows) * Cols &&
         "data size mismatch");
  // Copied into an aligned buffer: Data stays 64-byte aligned.
  auto Node = std::make_shared<TensorNode>();
  Node->Rows = Rows;
  Node->Cols = Cols;
  Node->Data.assign(Values.begin(), Values.end());
  return Tensor(std::move(Node));
}

Tensor Tensor::scalar(double Value) { return fromData(1, 1, {Value}); }

Tensor Tensor::parameter(unsigned Rows, unsigned Cols,
                         std::vector<double> Values) {
  Tensor T = fromData(Rows, Cols, std::move(Values));
  T.Node->RequiresGrad = true;
  // Parameters are long-lived and the optimizer indexes their gradient
  // unconditionally, so theirs is allocated eagerly.
  T.Node->Grad.assign(T.Node->Data.size(), 0.0);
  return T;
}

double Tensor::item() const {
  assert(size() == 1 && "item() requires a scalar tensor");
  return Node->Data[0];
}

void Tensor::backward() const {
  assert(size() == 1 && "backward() starts from a scalar loss");

  // Topological order via iterative DFS.
  std::vector<TensorNode *> Order;
  std::unordered_set<TensorNode *> Visited;
  std::vector<std::pair<TensorNode *, size_t>> Stack;
  Stack.push_back({Node.get(), 0});
  Visited.insert(Node.get());
  while (!Stack.empty()) {
    auto &[N, NextInput] = Stack.back();
    if (NextInput < N->Inputs.size()) {
      TensorNode *In = N->Inputs[NextInput++].get();
      if (Visited.insert(In).second)
        Stack.push_back({In, 0});
      continue;
    }
    Order.push_back(N);
    Stack.pop_back();
  }

  // Gradients are lazily allocated; materialize them for every node
  // the sweep can touch (zeroed).
  for (TensorNode *N : Order)
    if (N->Grad.size() != N->Data.size())
      N->Grad.assign(N->Data.size(), 0.0);

  // Seed and propagate in reverse topological order.
  Node->Grad[0] = 1.0;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    TensorNode *N = *It;
    if (N->Backward)
      N->Backward(*N);
  }
}

Tensor mlirrl::nn::makeNode(unsigned Rows, unsigned Cols,
                            std::vector<Tensor> Inputs, const char *Op) {
  Tensor T = Tensor::zeros(Rows, Cols);
  T.Node->Op = Op;
  for (const Tensor &In : Inputs) {
    assert(In.valid() && "invalid input tensor");
    T.Node->RequiresGrad |= In.requiresGrad();
    T.Node->Inputs.push_back(In.node());
  }
  return T;
}
