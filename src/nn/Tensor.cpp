//===- Tensor.cpp ---------------------------------------------------------===//

#include "nn/Tensor.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

/// A per-thread recycling arena for tensor buffers. Graph construction
/// allocates two buffers per node and frees them when the graph dies at
/// the end of each step/minibatch; the shapes repeat every iteration, so
/// returned buffers are almost always reused at their existing capacity
/// instead of hitting the allocator.
class BufferArena {
public:
  static BufferArena &local() {
    thread_local BufferArena Arena;
    return Arena;
  }

  DBuffer acquire(size_t Size) {
    DBuffer Buffer = reuse(Size);
    Buffer.assign(Size, 0.0);
    assert(Buffer.empty() || reinterpret_cast<uintptr_t>(Buffer.data()) %
                                     BufferAlignment ==
                                 0);
    return Buffer;
  }

  /// A recycled buffer filled with a copy of [Values, Values + Size)
  /// instead of zeros (one pass, no zero-fill).
  DBuffer acquireFrom(const double *Values, size_t Size) {
    DBuffer Buffer = reuse(Size);
    Buffer.assign(Values, Values + Size);
    assert(Buffer.empty() || reinterpret_cast<uintptr_t>(Buffer.data()) %
                                     BufferAlignment ==
                                 0);
    return Buffer;
  }

  void release(DBuffer &&Buffer) {
    size_t Bytes = Buffer.capacity() * sizeof(double);
    if (Bytes == 0 || Free.size() >= MaxEntries ||
        PooledBytes + Bytes > MaxPooledBytes)
      return;
    PooledBytes += Bytes;
    Free.push_back(std::move(Buffer));
  }

private:
  /// LIFO reuse matches the repeating allocation pattern; scan a few
  /// entries for one already big enough so assign() never reallocates.
  /// All buffers come from the 64-byte-aligned allocator (DBuffer), so
  /// every tensor base the GEMM/SIMD kernels see is cache-line aligned.
  DBuffer reuse(size_t Size) {
    size_t Limit = Free.size() > ScanDepth ? Free.size() - ScanDepth : 0;
    for (size_t I = Free.size(); I > Limit; --I) {
      if (Free[I - 1].capacity() >= Size) {
        DBuffer Buffer = std::move(Free[I - 1]);
        Free.erase(Free.begin() + static_cast<ptrdiff_t>(I - 1));
        PooledBytes -= Buffer.capacity() * sizeof(double);
        return Buffer;
      }
    }
    return DBuffer();
  }

  static constexpr size_t ScanDepth = 8;
  static constexpr size_t MaxEntries = 1024;
  static constexpr size_t MaxPooledBytes = 128u << 20;

  std::vector<DBuffer> Free;
  size_t PooledBytes = 0;
};

/// Returns a node's buffers to the destroying thread's arena.
void destroyNode(TensorNode *Node) {
  BufferArena &Arena = BufferArena::local();
  Arena.release(std::move(Node->Data));
  Arena.release(std::move(Node->Grad));
  delete Node;
}

} // namespace

Tensor Tensor::zeros(unsigned Rows, unsigned Cols) {
  // Grad stays unallocated until backward() reaches the node: a
  // forward-only graph never touches it, which halves its buffer
  // traffic.
  std::shared_ptr<TensorNode> Node(new TensorNode, destroyNode);
  Node->Rows = Rows;
  Node->Cols = Cols;
  Node->Data = BufferArena::local().acquire(static_cast<size_t>(Rows) * Cols);
  return Tensor(std::move(Node));
}

Tensor Tensor::fromData(unsigned Rows, unsigned Cols,
                        std::vector<double> Values) {
  assert(Values.size() == static_cast<size_t>(Rows) * Cols &&
         "data size mismatch");
  // The caller's buffer is copied into an arena buffer (one pass, no
  // zero-fill) so Data keeps the arena's 64-byte alignment guarantee.
  std::shared_ptr<TensorNode> Node(new TensorNode, destroyNode);
  Node->Rows = Rows;
  Node->Cols = Cols;
  Node->Data = BufferArena::local().acquireFrom(Values.data(), Values.size());
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

void Tensor::zeroGrad() const {
  std::fill(Node->Grad.begin(), Node->Grad.end(), 0.0);
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
  // the sweep can touch (zeroed, from the arena).
  BufferArena &Arena = BufferArena::local();
  for (TensorNode *N : Order)
    if (N->Grad.size() != N->Data.size())
      N->Grad = Arena.acquire(N->Data.size());

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
