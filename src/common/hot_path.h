#ifndef FVAE_COMMON_HOT_PATH_H_
#define FVAE_COMMON_HOT_PATH_H_

/// Hot-path purity annotations, consumed by fvae_lint's whole-program
/// analysis (tools/lint_graph.h). They expand to nothing at compile time —
/// the contract is enforced statically by the linter (a ctest) and
/// witnessed at runtime by the operator-new interposer in serving_test.
///
/// Conventions (docs/ARCHITECTURE.md §7):
///
///  - `FVAE_HOT` marks a function on a serving hot path: the store read
///    (ShardedEmbeddingStore::Get) and the fold-in encode chain
///    (FvaeFoldInEncoder, run inline on the RPC worker -> FieldVae encode
///    -> the layers' const Infer -> GEMM kernels). The linter transitively
///    walks every resolvable callee and fails if any reachable function
///    logs, does IO, or acquires a lock whose declaration is not marked
///    FVAE_HOT_LOCK_EXEMPT.
///
///  - `FVAE_NOALLOC` implies FVAE_HOT and additionally forbids heap
///    allocation tokens (`new`, malloc family, growing container calls)
///    anywhere on the reachable chain. Capacity-reusing calls that only
///    allocate while cold carry a `fvae-lint: allow(hot-alloc)` line
///    suppression; the warmed-up zero-allocation claim those suppressions
///    rest on is asserted for real by serving_test's global operator-new
///    interposer.
///
///  - `FVAE_HOT_LOCK_EXEMPT` goes on a Mutex/SharedMutex *member
///    declaration* whose acquisition on a hot path is by design (e.g. a
///    sharded store's short-held reader locks). Exemption is per-lock, not
///    per-call: every acquisition site of that member is allowed.
///
///  - `FVAE_EVENT_LOOP` marks a function that runs on an EpollLoop thread
///    (a readiness callback, a timer handler, or a Post()ed task — or a
///    method only ever invoked from one of those). The linter transitively
///    walks every resolvable callee and fails on anything that can stall
///    the loop: blocking syscalls (`poll`, `select`, sleeps, `recv`/`send`
///    without `MSG_DONTWAIT`), condition-variable waits, thread joins,
///    `RetryWithBackoff`, file IO, reaching an `FVAE_MAY_BLOCK` function,
///    and acquisition of locks that are neither FVAE_LOOP_LOCK_EXEMPT nor
///    FVAE_HOT_LOCK_EXEMPT. Lambdas registered inside an annotated
///    function are covered automatically: the extractor attributes a
///    lambda's body to its enclosing named function.
///
///  - `FVAE_MAY_BLOCK` marks a function that blocks by design (deadline
///    polls, full-buffer sends, connect handshakes). It is documentation
///    at the call site and a hard stop for the event-loop walk: reaching
///    one from an FVAE_EVENT_LOOP root is a finding on the call line, and
///    the walk does not descend into it (the annotation already concedes
///    everything its body could reveal).
///
///  - `FVAE_LOOP_LOCK_EXEMPT` goes on a Mutex member declaration whose
///    bounded critical section is safe to enter from a loop thread (e.g.
///    EpollLoop's own post-queue handoff mutex: push + eventfd write, no
///    IO, no nested locks). FVAE_HOT_LOCK_EXEMPT implies the same waiver —
///    a lock vetted for the serving hot path is vetted for the loop.
///
/// Annotate both the interface declaration (documentation for readers) and
/// the implementing definition — the linter matches attributes by exact
/// namespace-qualified name, so an annotation on a base-class virtual does
/// not transfer to overrides.

#define FVAE_HOT
#define FVAE_NOALLOC
#define FVAE_HOT_LOCK_EXEMPT
#define FVAE_EVENT_LOOP
#define FVAE_MAY_BLOCK
#define FVAE_LOOP_LOCK_EXEMPT

#endif  // FVAE_COMMON_HOT_PATH_H_
