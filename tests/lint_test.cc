#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cpp_lexer.h"
#include "tools/lint_graph.h"
#include "tools/lint_rules.h"

namespace fvae::lint {
namespace {

/// Runs the per-file rules over a snippet registered under `path`.
std::vector<Finding> Lint(const std::string& content,
                          const LintOptions& options = {},
                          const std::string& path = "snippet.cc") {
  return LintFile(path, content, options);
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

// ---------- void-needs-reason ----------

TEST(LintVoidDiscardTest, JustifiedDiscardStaysSilent) {
  const auto findings = Lint(
      "Status Close();\n"
      "void f() {\n"
      "  // Destructor path: nothing can consume the status here.\n"
      "  (void)Close();\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintVoidDiscardTest, UnjustifiedDiscardFires) {
  const auto findings = Lint(
      "Status Close();\n"
      "void f() {\n"
      "  (void)Close();\n"
      "}\n");
  ASSERT_TRUE(HasRule(findings, "void-needs-reason"));
}

TEST(LintVoidDiscardTest, UnusedParameterSilencingIsExempt) {
  const auto findings = Lint(
      "void f(int unused) {\n"
      "  (void)unused;\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- raw-mutex ----------

TEST(LintRawMutexTest, RawPrimitivesFire) {
  for (const char* decl :
       {"std::mutex mu_;", "std::shared_mutex mu_;",
        "std::condition_variable cv_;",
        "std::lock_guard<std::mutex> lock(mu_);"}) {
    const auto findings = Lint(std::string("  ") + decl + "\n");
    EXPECT_TRUE(HasRule(findings, "raw-mutex")) << decl;
  }
}

TEST(LintRawMutexTest, WrapperTypesStaySilent) {
  const auto findings = Lint(
      "  Mutex mutex_;\n"
      "  SharedMutex shard_mutex_;\n"
      "  MutexLock lock(mutex_);\n"
      "  ReaderMutexLock shared(shard_mutex_);\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRawMutexTest, MutexHeaderItselfIsAllowed) {
  LintOptions options;
  options.allow_raw_mutex = true;
  const auto findings = Lint("std::mutex mu_;\n", options);
  EXPECT_TRUE(findings.empty());
}

TEST(LintRawMutexTest, SuppressionCommentWorks) {
  const auto findings =
      Lint("std::mutex mu_;  // fvae-lint: allow(raw-mutex)\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRawMutexTest, ManualLockCallsFireInSrc) {
  // Production code is RAII-only: every manual call is a finding, whatever
  // its balance (held at exit on one path, released twice, shared).
  const auto findings = Lint(
      "void L::Bad() {\n"
      "  mu_.Lock();\n"
      "  if (size_ > 0) return;\n"
      "  mu_.Unlock();\n"
      "  mu_.Unlock();\n"
      "  shard_->LockShared();\n"
      "  shard_->UnlockShared();\n"
      "}\n",
      {}, "src/serving/l.cc");
  std::vector<size_t> lines;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "raw-mutex");
    lines.push_back(f.line);
  }
  EXPECT_EQ(lines, (std::vector<size_t>{2, 4, 5, 6, 7}));
}

TEST(LintRawMutexTest, ManualLockCallsAllowedInMutexHeaderAndTests) {
  const std::string body = "  mu_.Lock();\n  mu_.Unlock();\n";
  LintOptions mutex_header;
  mutex_header.allow_raw_mutex = true;
  EXPECT_TRUE(Lint(body, mutex_header, "src/common/mutex.h").empty());
  // common_test drives a Mutex by hand to probe TryLock.
  EXPECT_TRUE(Lint(body, {}, "tests/common_test.cc").empty());
  // Neither a free Lock() nor an unrelated member name is a manual lock.
  EXPECT_TRUE(Lint("  Lock();\n  file.LockFile();\n", {}, "src/x.cc").empty());
  EXPECT_TRUE(
      Lint("  mu_.Lock();  // fvae-lint: allow(raw-mutex)\n", {}, "src/x.cc")
          .empty());
}

// ---------- raw-socket ----------

TEST(LintRawSocketTest, BareAndGlobalQualifiedCallsFire) {
  for (const char* expr :
       {"int fd = socket(AF_INET, SOCK_STREAM, 0);",
        "int fd = ::socket(AF_INET, SOCK_STREAM, 0);", "close(fd);",
        "::close(fd);", "int conn = accept(listener, nullptr, nullptr);",
        "int conn = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK);"}) {
    const auto findings = Lint(std::string("  ") + expr + "\n");
    EXPECT_TRUE(HasRule(findings, "raw-socket")) << expr;
  }
}

TEST(LintRawSocketTest, MemberCallsAndWrapperStaySilent) {
  const auto findings = Lint(
      "  file.close();\n"
      "  stream->close();\n"
      "  out_.close();\n"
      "  Fd fd = std::move(other);\n"
      "  fd.Reset();\n"
      "  posix::close(fd);\n");
  EXPECT_FALSE(HasRule(findings, "raw-socket"));
}

TEST(LintRawSocketTest, NetModuleIsAllowed) {
  LintOptions options;
  options.allow_raw_sockets = true;
  const auto findings = Lint("  ::close(fd_);\n", options);
  EXPECT_TRUE(findings.empty());
}

TEST(LintRawSocketTest, SuppressionCommentWorks) {
  const auto findings =
      Lint("  ::close(fd);  // fvae-lint: allow(raw-socket)\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- banned-random ----------

TEST(LintBannedRandomTest, NondeterminismFires) {
  for (const char* expr :
       {"int x = rand();", "srand(42);", "std::random_device rd;"}) {
    const auto findings = Lint(std::string("  ") + expr + "\n");
    EXPECT_TRUE(HasRule(findings, "banned-random")) << expr;
  }
}

TEST(LintBannedRandomTest, SeededRngAndLookalikeNamesStaySilent) {
  const auto findings = Lint(
      "  Rng rng(42);\n"
      "  double r = rng.Uniform();\n"
      "  int operand = 3;\n"       // "rand" inside an identifier
      "  GrandTotal(operand);\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintBannedRandomTest, RandomModuleIsAllowed) {
  LintOptions options;
  options.allow_nondeterminism = true;
  const auto findings = Lint("std::random_device rd;\n", options);
  EXPECT_TRUE(findings.empty());
}

// ---------- header hygiene ----------

TEST(LintHeaderGuardTest, ExpectedGuardFollowsPath) {
  EXPECT_EQ(ExpectedGuard("src/serving/sharded_store.h"),
            "FVAE_SERVING_SHARDED_STORE_H_");
  EXPECT_EQ(ExpectedGuard("bench/model_zoo.h"), "FVAE_BENCH_MODEL_ZOO_H_");
  EXPECT_EQ(ExpectedGuard("tools/lint_rules.h"), "FVAE_TOOLS_LINT_RULES_H_");
  EXPECT_EQ(ExpectedGuard("src/core/trainer.cc"), "");
}

TEST(LintHeaderGuardTest, MatchingGuardStaysSilent) {
  LintOptions options;
  options.expected_guard = "FVAE_COMMON_FOO_H_";
  const auto findings = Lint(
      "#ifndef FVAE_COMMON_FOO_H_\n"
      "#define FVAE_COMMON_FOO_H_\n"
      "#endif  // FVAE_COMMON_FOO_H_\n",
      options);
  EXPECT_TRUE(findings.empty());
}

TEST(LintHeaderGuardTest, WrongGuardFires) {
  LintOptions options;
  options.expected_guard = "FVAE_COMMON_FOO_H_";
  const auto findings = Lint(
      "#ifndef COMMON_FOO_H\n"
      "#define COMMON_FOO_H\n"
      "#endif\n",
      options);
  EXPECT_TRUE(HasRule(findings, "header-guard"));
}

TEST(LintHeaderGuardTest, MissingGuardAndPragmaOnceFire) {
  LintOptions options;
  options.expected_guard = "FVAE_COMMON_FOO_H_";
  EXPECT_TRUE(HasRule(Lint("int x;\n", options), "header-guard"));
  EXPECT_TRUE(HasRule(Lint("#pragma once\n"
                           "#ifndef FVAE_COMMON_FOO_H_\n"
                           "#define FVAE_COMMON_FOO_H_\n"
                           "#endif\n",
                           options),
                      "header-guard"));
}

TEST(LintUsingNamespaceTest, FiresInHeadersOnly) {
  LintOptions header;
  header.expected_guard = "FVAE_COMMON_FOO_H_";
  const std::string body =
      "#ifndef FVAE_COMMON_FOO_H_\n"
      "#define FVAE_COMMON_FOO_H_\n"
      "using namespace std;\n"
      "#endif  // FVAE_COMMON_FOO_H_\n";
  EXPECT_TRUE(HasRule(Lint(body, header), "using-namespace"));
  EXPECT_FALSE(HasRule(Lint("using namespace std;\n"), "using-namespace"));
}

// ---------- metric-name ----------

TEST(LintMetricNameTest, BadNamesFire) {
  // Escaped quotes keep these snippets from looking like registry calls to
  // the tree walk over this very file.
  for (const char* expr :
       {"m.Counter(\"BadName\");", "m.Gauge(\"serving.\");",
        "registry->Histo(\"lookup latency\");", "m.Counter(\"no_dots\");",
        "m.Gauge(\"serving..depth\");", "m.Histo(\"9data.rows\");"}) {
    const auto findings = Lint(std::string("  ") + expr + "\n");
    EXPECT_TRUE(HasRule(findings, "metric-name")) << expr;
  }
}

TEST(LintMetricNameTest, DottedSnakeCasePathsStaySilent) {
  const auto findings = Lint(
      "  m.Counter(\"training.steps\").Increment();\n"
      "  registry->Gauge(\"hash.load_factor\").Set(0.5);\n"
      "  m.Histo(\"serving.lookup_latency_us\", 1.0, 1.3, 64);\n"
      "  two.Counter(\"a.b2.c_d\");\n");
  EXPECT_FALSE(HasRule(findings, "metric-name"));
}

TEST(LintMetricNameTest, LookalikesAndNonLiteralsAreExempt) {
  const auto findings = Lint(
      "  m.GetCounter(\"NotTheRegistry\");\n"  // different method name
      "  m.Counter(name);\n"                   // non-literal argument
      "  // m.Counter(\"BadComment\") in a comment\n");
  EXPECT_FALSE(HasRule(findings, "metric-name"));
}

TEST(LintMetricNameTest, SuppressionCommentWorks) {
  const auto findings = Lint(
      "  m.Counter(\"Legacy.Name\");  // fvae-lint: allow(metric-name)\n");
  EXPECT_FALSE(HasRule(findings, "metric-name"));
}

// ---------- span-name ----------

TEST(LintSpanNameTest, BadNamesFireAcrossAllForms) {
  for (const char* expr :
       {"obs::TraceSpan span(\"ParseFrame\");",       // named variable
        "obs::TraceSpan(\"no_dots\");",               // temporary
        "FVAE_TRACE_SCOPE(\"net..parse\");",          // scope macro
        "recorder.RecordSpan(\"Net.Reply\", s, d);"}) {  // explicit record
    const auto findings = Lint(std::string("  ") + expr + "\n");
    EXPECT_TRUE(HasRule(findings, "span-name")) << expr;
  }
}

TEST(LintSpanNameTest, DottedSnakeCasePathsStaySilent) {
  const auto findings = Lint(
      "  obs::TraceSpan parse_span(\"net.server.parse\");\n"
      "  FVAE_TRACE_SCOPE(\"train.step\");\n"
      "  recorder.RecordSpan(\"net.client.send\", start, dur, ctx, parent);\n");
  EXPECT_FALSE(HasRule(findings, "span-name"));
}

TEST(LintSpanNameTest, NonLiteralsAndLookalikesAreExempt) {
  const auto findings = Lint(
      "  obs::TraceSpan span(name);\n"       // non-literal argument
      "  MakeTraceSpanLike(\"NotASpan\");\n"  // different identifier
      "  // TraceSpan span(\"BadComment\") in a comment\n");
  EXPECT_FALSE(HasRule(findings, "span-name"));
}

TEST(LintSpanNameTest, SuppressionCommentWorks) {
  const auto findings = Lint(
      "  FVAE_TRACE_SCOPE(\"Legacy.Span\");  // fvae-lint: allow(span-name)\n");
  EXPECT_FALSE(HasRule(findings, "span-name"));
}

// ---------- lexer ----------

// ---------- atomic-write ----------

TEST(LintAtomicWriteTest, RawOfstreamFiresInDurableModules) {
  LintOptions options;
  options.ban_raw_ofstream = true;
  const auto findings = Lint(
      "void Save(const std::string& path) {\n"
      "  std::ofstream out(path, std::ios::binary);\n"
      "}\n",
      options);
  ASSERT_TRUE(HasRule(findings, "atomic-write"));
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintAtomicWriteTest, ReadersAndWrapperStaySilent) {
  LintOptions options;
  options.ban_raw_ofstream = true;
  const auto findings = Lint(
      "Status Load(const std::string& path) {\n"
      "  std::ifstream in(path, std::ios::binary);\n"
      "  AtomicFileWriter writer;\n"
      "  return writer.Commit();\n"
      "}\n",
      options);
  EXPECT_FALSE(HasRule(findings, "atomic-write"));
}

TEST(LintAtomicWriteTest, OffByDefaultAndSuppressible) {
  const std::string snippet =
      "void f() {\n"
      "  std::ofstream out(\"x\");  // fvae-lint: allow(atomic-write)\n"
      "}\n";
  EXPECT_FALSE(HasRule(Lint(snippet), "atomic-write"));
  LintOptions options;
  options.ban_raw_ofstream = true;
  EXPECT_FALSE(HasRule(Lint(snippet, options), "atomic-write"));
}

TEST(LintLexerTest, CommentsAndStringsNeverFire) {
  const auto findings = Lint(
      "// std::mutex in a comment\n"
      "/* rand() in a block\n"
      "   comment spanning lines: std::random_device */\n"
      "const char* s = \"std::mutex rand()\";\n"
      "const char* r = R\"(srand(1) std::shared_mutex)\";\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- lexer regressions ----------

TEST(CppLexerTest, DigitSeparatorsStayOneNumberToken) {
  const auto tokens = LexCpp("size_t n = 1'000'000;\n");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(tokens[3].text, "1'000'000");
}

TEST(CppLexerTest, RawStringSpansLinesAndHidesCode) {
  const auto tokens = LexCpp(
      "const char* s = R\"(std::mutex m;\n"
      "rand();)\";\n"
      "int after = 0;\n");
  // Nothing inside the raw string becomes an identifier token.
  for (const auto& token : tokens) {
    EXPECT_NE(token.text, "mutex");
    EXPECT_NE(token.text, "rand");
  }
  // Line numbers account for the newline inside the literal.
  bool found_after = false;
  for (const auto& token : tokens) {
    if (token.kind == TokKind::kIdent && token.text == "after") {
      EXPECT_EQ(token.line, 3u);
      found_after = true;
    }
  }
  EXPECT_TRUE(found_after);
}

TEST(CppLexerTest, ContinuedPreprocessorDirectiveIsOneToken) {
  const auto tokens = LexCpp(
      "#define FOO(a) \\\n"
      "  ((a) + 1)\n"
      "int x = FOO(1);\n");
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens[0].kind, TokKind::kPreproc);
  // The directive swallowed its continuation line.
  EXPECT_NE(tokens[0].text.find("((a) + 1)"), std::string::npos);
}

TEST(CppLexerTest, CommentsAndStringsDoNotLeakRuleTriggers) {
  const auto findings = Lint(
      "// std::mutex commented_out;\n"
      "/* srand(42); */\n"
      "const char* t = \"std::shared_mutex in a string\";\n"
      "void f() {}\n");
  EXPECT_FALSE(HasRule(findings, "raw-mutex"));
  EXPECT_FALSE(HasRule(findings, "banned-random"));
}

// ---------- whole-program: lock-order cycles ----------

/// Wraps one synthetic TU as the whole program for AnalyzeProgram.
std::vector<Finding> AnalyzeOne(const std::string& content) {
  return AnalyzeProgram({SourceFile{"src/fixture.cc", content}});
}

TEST(LockOrderTest, DeclaredCycleFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      "  Mutex a_ FVAE_ACQUIRED_BEFORE(b_);\n"
      "  Mutex b_ FVAE_ACQUIRED_BEFORE(a_);\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "lock-cycle"));
  // The report prints the full cycle path through both locks.
  EXPECT_NE(findings[0].message.find("fvae::S::a_"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("fvae::S::b_"), std::string::npos)
      << findings[0].message;
}

TEST(LockOrderTest, ObservedNestingAgainstDeclaredOrderFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Backwards() {\n"
      "    MutexLock l1(b_);\n"
      "    MutexLock l2(a_);\n"
      "  }\n"
      " private:\n"
      "  Mutex a_ FVAE_ACQUIRED_BEFORE(b_);\n"
      "  Mutex b_;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "lock-cycle"));
}

TEST(LockOrderTest, CrossFunctionCycleThroughCallGraphFires) {
  // f holds a_ and calls g, which takes b_; h holds b_ and calls k, which
  // takes a_ — a deadlock only visible through the call graph.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void f() {\n"
      "    MutexLock lock(a_);\n"
      "    g();\n"
      "  }\n"
      "  void g() { MutexLock lock(b_); }\n"
      "  void h() {\n"
      "    MutexLock lock(b_);\n"
      "    k();\n"
      "  }\n"
      "  void k() { MutexLock lock(a_); }\n"
      " private:\n"
      "  Mutex a_;\n"
      "  Mutex b_;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "lock-cycle"));
}

TEST(LockOrderTest, ConsistentOrderStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Both() {\n"
      "    MutexLock l1(a_);\n"
      "    MutexLock l2(b_);\n"
      "  }\n"
      "  void AlsoBoth() {\n"
      "    MutexLock l1(a_);\n"
      "    MutexLock l2(b_);\n"
      "  }\n"
      " private:\n"
      "  Mutex a_ FVAE_ACQUIRED_BEFORE(b_);\n"
      "  Mutex b_;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "lock-cycle"));
}

// ---------- whole-program: hot-path purity ----------

TEST(HotPathTest, TransitiveAllocationUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Encode() FVAE_HOT FVAE_NOALLOC { Helper(); }\n"
      "  void Helper() { buf_.push_back(1.0f); }\n"
      " private:\n"
      "  std::vector<float> buf_;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "hot-alloc"));
  // The chain from the annotated root to the allocation is reported.
  EXPECT_NE(findings[0].message.find("Encode"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("Helper"), std::string::npos)
      << findings[0].message;
}

TEST(HotPathTest, NewExpressionUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  float* p = new float[16];\n"
      "  delete[] p;\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-alloc"));
}

// A sized container or matrix declaration allocates its storage: one
// fixture per form, reached through a helper as in AffineRows.
TEST(HotPathTest, SizedVectorUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Helper(size_t n) { std::vector<float> probe(n); }\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC { Helper(4); }\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "hot-alloc"));
  EXPECT_NE(findings[0].message.find("Helper"), std::string::npos)
      << findings[0].message;
}

TEST(HotPathTest, FilledVectorUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  std::vector<std::vector<float>> probe(4, {1.0f});\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-alloc"));
}

TEST(HotPathTest, SizedMatrixUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Encode(size_t rows) FVAE_HOT FVAE_NOALLOC {\n"
      "  Matrix probe(rows, 8);\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-alloc"));
}

TEST(HotPathTest, SizedMatrixTemporaryUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Consume(const Matrix& m);\n"
      "void Encode(size_t rows) FVAE_HOT FVAE_NOALLOC {\n"
      "  Consume(Matrix(rows, 8));\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-alloc"));
}

TEST(HotPathTest, SizedVectorTemporaryUnderNoallocFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "float Sum(const std::vector<float>& v);\n"
      "float Encode(size_t n) FVAE_HOT FVAE_NOALLOC {\n"
      "  return Sum(std::vector<float>(n));\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-alloc"));
}

// Default-constructed temporaries, a qualified name and a lambda's
// trailing return type allocate nothing.
TEST(HotPathTest, UnsizedTemporariesUnderNoallocStaySilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Take(const Matrix& m, const std::vector<float>& v);\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  Take(Matrix(), std::vector<float>());\n"
      "  const size_t tile = Matrix::kTile;\n"
      "  auto none = []() -> Matrix { return {}; };\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-alloc"));
}

// Default constructions and references allocate nothing.
TEST(HotPathTest, UnsizedDeclarationsUnderNoallocStaySilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Encode(const Matrix& in, const std::vector<float>& v)\n"
      "    FVAE_HOT FVAE_NOALLOC {\n"
      "  std::vector<float> empty;\n"
      "  std::vector<float> braced{};\n"
      "  Matrix none;\n"
      "  const Matrix& alias = in;\n"
      "  const std::vector<float>& view(v);\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-alloc"));
}

TEST(HotPathTest, LockAcquisitionOnHotPathFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Serve() FVAE_HOT { MutexLock lock(mu_); }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "hot-lock"));
}

TEST(HotPathTest, ExemptLockOnHotPathStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Serve() FVAE_HOT { MutexLock lock(mu_); }\n"
      " private:\n"
      "  Mutex mu_ FVAE_HOT_LOCK_EXEMPT;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-lock"));
}

TEST(HotPathTest, TransitiveIoAndLoggingFire) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Reload() {\n"
      "  std::ifstream in(\"dump.bin\");\n"
      "  FVAE_LOG(INFO) << \"reloading\";\n"
      "}\n"
      "void Serve() FVAE_HOT { Reload(); }\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-io"));
  EXPECT_TRUE(HasRule(findings, "hot-log"));
}

TEST(HotPathTest, HotWithoutNoallocAllowsAllocations) {
  // FVAE_HOT alone bans logging/IO/locks but not heap use.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Serve() FVAE_HOT {\n"
      "  std::vector<int> scratch;\n"
      "  scratch.push_back(1);\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-alloc"));
  EXPECT_TRUE(findings.empty());
}

TEST(HotPathTest, TraceSpanOnHotPathFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Helper() {\n"
      "  obs::TraceSpan span(\"net.server.parse\");\n"
      "}\n"
      "void Serve() FVAE_HOT { Helper(); }\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "hot-trace"));
  // The chain from the annotated root to the construction is reported.
  EXPECT_NE(findings[0].message.find("Serve"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("Helper"), std::string::npos)
      << findings[0].message;
}

TEST(HotPathTest, TraceScopeMacroOnHotPathFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Serve() FVAE_HOT {\n"
      "  FVAE_TRACE_SCOPE(\"serving.lookup\");\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "hot-trace"));
}

TEST(HotPathTest, TraceSpanOffHotPathStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Offline() {\n"
      "  obs::TraceSpan span(\"checkpoint.write\");\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-trace"));
}

TEST(HotPathTest, TraceSpanSuppressionCommentWorks) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Serve() FVAE_HOT {\n"
      "  obs::TraceSpan span(\"serving.slow_init\");"
      "  // fvae-lint: allow(hot-trace)\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-trace"));
}

TEST(HotPathTest, SuppressionCommentSilencesFinding) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  buf.resize(64);  // fvae-lint: allow(hot-alloc)\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "hot-alloc"));
}

TEST(HotPathTest, ColdFunctionsAreNotChecked) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void Offline() {\n"
      "  std::ofstream out(\"dump.bin\");  // fvae-lint: allow(atomic-write)\n"
      "  std::vector<int> v;\n"
      "  v.push_back(1);\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- whole-program: dispatch-table indirection ----------

TEST(DispatchTableTest, HotAllocThroughDispatchTableFires) {
  // A `t->member = Target;` binding plus a `Table().member(...)` call site
  // must give the hot-path walk an edge into the bound kernel.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "struct KernelTable {\n"
      "  void (*axpy)(float, const float*, float*, size_t);\n"
      "};\n"
      "KernelTable g_table;\n"
      "void AxpyImpl(float a, const float* x, float* y, size_t n) {\n"
      "  void* scratch = malloc(n);\n"
      "  free(scratch);\n"
      "}\n"
      "void Fill(KernelTable* t) { t->axpy = AxpyImpl; }\n"
      "const KernelTable& Kernels() { return g_table; }\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  Kernels().axpy(1.0f, nullptr, nullptr, 8);\n"
      "}\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "hot-alloc"));
  // The chain names both the annotated root and the dispatched kernel.
  EXPECT_NE(findings[0].message.find("Encode"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("AxpyImpl"), std::string::npos)
      << findings[0].message;
}

TEST(DispatchTableTest, PureKernelThroughDispatchStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "struct KernelTable {\n"
      "  void (*tanh_inplace)(float*, size_t);\n"
      "};\n"
      "KernelTable g_table;\n"
      "void TanhImpl(float* x, size_t n) {\n"
      "  for (size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);\n"
      "}\n"
      "void Fill(KernelTable* t) { t->tanh_inplace = TanhImpl; }\n"
      "const KernelTable& Kernels() { return g_table; }\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  Kernels().tanh_inplace(nullptr, 8);\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty());
}

TEST(DispatchTableTest, QualifiedAddressOfBindingResolves) {
  // `t->member = &detail::Target;` — optional address-of, :: chain.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "struct KernelTable {\n"
      "  double (*dot)(const float*, const float*, size_t);\n"
      "};\n"
      "KernelTable g_table;\n"
      "namespace kernel_detail {\n"
      "double DotImpl(const float* a, const float* b, size_t n) {\n"
      "  FVAE_LOG(INFO) << \"dot\";\n"
      "  return 0.0;\n"
      "}\n"
      "}  // namespace kernel_detail\n"
      "void Fill(KernelTable* t) { t->dot = &kernel_detail::DotImpl; }\n"
      "const KernelTable& Kernels() { return g_table; }\n"
      "void Serve() FVAE_HOT {\n"
      "  Kernels().dot(nullptr, nullptr, 4);\n"
      "}\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "hot-log"));
  EXPECT_NE(findings[0].message.find("DotImpl"), std::string::npos)
      << findings[0].message;
}

TEST(DispatchTableTest, UnboundMemberCallStaysUnresolved) {
  // A member call with no dispatch binding anywhere must not invent edges:
  // the dirty helper shares a *member* name with nothing bound to it.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "struct Sink { void (*emit)(int); };\n"
      "Sink g_sink;\n"
      "const Sink& TheSink() { return g_sink; }\n"
      "void Encode() FVAE_HOT FVAE_NOALLOC {\n"
      "  TheSink().emit(1);\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- whole-program: event-loop blocking discipline ----------

TEST(EventLoopTest, BlockingCallInLoopCallbackFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() {\n"
      "    ::usleep(1000);\n"
      "  }\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "loop-block"));
  EXPECT_NE(findings[0].message.find("usleep"), std::string::npos);
}

TEST(EventLoopTest, TransitiveBlockingThroughHelperFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() { Helper(); }\n"
      "  void Helper() { ::poll(nullptr, 0, -1); }\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "loop-block"));
  // The chain from the annotated root is printed.
  EXPECT_NE(findings[0].message.find("OnReady -> fvae::L::Helper"),
            std::string::npos)
      << findings[0].message;
}

TEST(EventLoopTest, NonBlockingCallbackStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() {\n"
      "    ::recv(fd_, buf_, 4096, MSG_DONTWAIT);\n"
      "    ::send(fd_, buf_, 4096, MSG_NOSIGNAL | MSG_DONTWAIT);\n"
      "    counter_ += 1;\n"
      "  }\n"
      " private:\n"
      "  int fd_ = -1;\n"
      "  long counter_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(EventLoopTest, RecvWithoutDontwaitFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() { ::recv(fd_, buf_, 4096, 0); }\n"
      " private:\n"
      "  int fd_ = -1;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "loop-block"));
  EXPECT_NE(findings[0].message.find("recv without MSG_DONTWAIT"),
            std::string::npos)
      << findings[0].message;
}

TEST(EventLoopTest, CondvarWaitAndJoinFire) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() {\n"
      "    cv_.Wait(mutex_);\n"
      "    worker_.join();\n"
      "  }\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "loop-block"));
}

TEST(EventLoopTest, MayBlockCalleeFiresAtCallSiteWithoutDescent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "FVAE_MAY_BLOCK void SendAll() {\n"
      "  ::poll(nullptr, 0, -1);\n"
      "}\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() { SendAll(); }\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "loop-may-block"));
  // The concession is total: the poll inside the conceded body must not be
  // reported a second time.
  EXPECT_FALSE(HasRule(findings, "loop-block"));
}

TEST(EventLoopTest, NonExemptLockFiresExemptLocksStaySilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() {\n"
      "    MutexLock a(plain_mutex_);\n"
      "    MutexLock b(loop_mutex_);\n"
      "    MutexLock c(hot_mutex_);\n"
      "  }\n"
      " private:\n"
      "  Mutex plain_mutex_;\n"
      "  Mutex loop_mutex_ FVAE_LOOP_LOCK_EXEMPT;\n"
      "  Mutex hot_mutex_ FVAE_HOT_LOCK_EXEMPT;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "loop-lock"));
  // Exactly one finding: the plain mutex. Both exemption macros waive.
  EXPECT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("plain_mutex_"), std::string::npos);
}

TEST(EventLoopTest, AllowLoopPathPrunesTheCallEdge) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() {\n"
      "    Helper();  // fvae-lint: allow(loop-path)\n"
      "  }\n"
      "  void Helper() { ::usleep(1000); }\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- whole-program: guarded-by enforcement ----------

TEST(GuardedByTest, UnguardedAccessFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class Counter {\n"
      " public:\n"
      "  void Add(long d) { value_ += d; }\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  long value_ FVAE_GUARDED_BY(mutex_);\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "guarded-by"));
  EXPECT_NE(findings[0].message.find("value_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("mutex_"), std::string::npos);
}

TEST(GuardedByTest, RaiiGuardStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class Counter {\n"
      " public:\n"
      "  void Add(long d) {\n"
      "    MutexLock lock(mutex_);\n"
      "    value_ += d;\n"
      "  }\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  long value_ FVAE_GUARDED_BY(mutex_);\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(GuardedByTest, RequiresOnPrototypeCoversOutOfLineDefinition) {
  // The annotation sits on the in-class prototype only — LinkProgram must
  // merge it onto the definition (the RequestBatcher::TakeBatch pattern).
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class Batcher {\n"
      " public:\n"
      "  void TakeBatch() FVAE_REQUIRES(mutex_);\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  long queue_ FVAE_GUARDED_BY(mutex_);\n"
      "};\n"
      "void Batcher::TakeBatch() { queue_ += 1; }\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(GuardedByTest, ManualLockDoesNotCountAsHeld) {
  // src/ takes locks through RAII guards only (raw-mutex), so a hand-taken
  // lock guards nothing here.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class Q {\n"
      " public:\n"
      "  void Drain() {\n"
      "    mutex_.Lock();\n"
      "    stopped_ = true;\n"
      "    mutex_.Unlock();\n"
      "  }\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  bool stopped_ FVAE_GUARDED_BY(mutex_);\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(findings, "guarded-by"));
}

TEST(GuardedByTest, AccessAfterGuardScopeClosesFires) {
  // The early return inside the guarded block stays silent; only the
  // access after the guard's scope closed fires.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class Q {\n"
      " public:\n"
      "  void Drain() {\n"
      "    {\n"
      "      MutexLock lock(mutex_);\n"
      "      if (stopped_) {\n"
      "        return;\n"
      "      }\n"
      "      stopped_ = true;\n"
      "    }\n"
      "    stopped_ = false;\n"
      "  }\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  bool stopped_ FVAE_GUARDED_BY(mutex_);\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 12u);
}

TEST(GuardedByTest, ReceiverFormMatchesReceiverScopedGuard) {
  // The trace-buffer pattern: per-object locks named via the receiver.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "struct Buffer {\n"
      "  Mutex mutex;\n"
      "  long events FVAE_GUARDED_BY(mutex);\n"
      "};\n"
      "class Recorder {\n"
      " public:\n"
      "  void Good(Buffer& buffer) {\n"
      "    MutexLock lock(buffer.mutex);\n"
      "    buffer.events += 1;\n"
      "  }\n"
      "  void Bad(Buffer& buffer) { buffer.events += 1; }\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "guarded-by"));
  EXPECT_EQ(findings.size(), 1u);  // only Bad()
}

TEST(GuardedByTest, ConstructorAndSuppressionAreExempt) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class Counter {\n"
      " public:\n"
      "  Counter() { value_ = 0; }\n"
      "  long Read() {\n"
      "    return value_;  // fvae-lint: allow(guarded-by)\n"
      "  }\n"
      " private:\n"
      "  Mutex mutex_;\n"
      "  long value_ FVAE_GUARDED_BY(mutex_);\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(GuardedByTest, TreeAnnotationsAreActuallyExtracted) {
  // RepositoryIsClean proving "no findings" is only meaningful if the
  // checker sees the tree's annotations at all; pin the extraction volume
  // so a silent regression cannot masquerade as a clean tree. The clang
  // -Wthread-safety CI job checks the same ~20 declarations, so agreement
  // with Clang on src/ is "both checkers pass on the same tree".
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(FVAE_SOURCE_DIR) / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    files.push_back(
        {fs::relative(entry.path(), FVAE_SOURCE_DIR).generic_string(),
         body.str()});
  }
  const ProgramFacts pf = LinkProgram(files);
  EXPECT_GE(pf.guarded.size(), 15u);
  size_t event_loop_roots = 0;
  size_t may_block = 0;
  for (const FunctionFacts& fn : pf.functions) {
    event_loop_roots += fn.event_loop ? 1 : 0;
    may_block += fn.may_block ? 1 : 0;
  }
  EXPECT_GE(event_loop_roots, 8u);   // the RpcServer loop-thread methods
  EXPECT_GE(may_block, 5u);          // SendAll/RecvAll/WaitReadable/...
  bool post_mutex_loop_exempt = false;
  for (const LockDecl& lock : pf.locks) {
    if (lock.id == "fvae::net::EpollLoop::post_mutex_") {
      post_mutex_loop_exempt = lock.loop_exempt;
    }
  }
  EXPECT_TRUE(post_mutex_loop_exempt);
}

// ---------- exhaustive switches over wire enums ----------

TEST(VerbSwitchTest, MissingCaseWithoutDefaultFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae::net {\n"
      "enum class Verb : uint8_t { kHealth, kLookup, kEncodeFoldIn };\n"
      "void Dispatch(Verb verb) {\n"
      "  switch (verb) {\n"
      "    case Verb::kHealth:\n"
      "      break;\n"
      "    case Verb::kLookup:\n"
      "      break;\n"
      "  }\n"
      "}\n"
      "}  // namespace fvae::net\n");
  ASSERT_TRUE(HasRule(findings, "verb-switch"));
  EXPECT_NE(findings[0].message.find("kEncodeFoldIn"), std::string::npos)
      << findings[0].message;
}

TEST(VerbSwitchTest, FullCoverageStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae::net {\n"
      "enum class Verb : uint8_t { kHealth, kLookup };\n"
      "void Dispatch(Verb verb) {\n"
      "  switch (verb) {\n"
      "    case Verb::kHealth:\n"
      "      break;\n"
      "    case Verb::kLookup:\n"
      "      break;\n"
      "  }\n"
      "}\n"
      "}  // namespace fvae::net\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(VerbSwitchTest, JustifiedDefaultWaivesMissingCases) {
  const auto findings = AnalyzeOne(
      "namespace fvae::net {\n"
      "enum class Verb : uint8_t { kHealth, kLookup, kStats };\n"
      "void Dispatch(Verb verb) {\n"
      "  switch (verb) {\n"
      "    case Verb::kHealth:\n"
      "      break;\n"
      "    default:  // unknown verbs answer kInvalidArgument\n"
      "      break;\n"
      "  }\n"
      "}\n"
      "}  // namespace fvae::net\n");
  EXPECT_TRUE(findings.empty()) << findings[0].message;
}

TEST(VerbSwitchTest, BareDefaultDoesNotWaive) {
  const auto findings = AnalyzeOne(
      "namespace fvae::net {\n"
      "enum class Verb : uint8_t { kHealth, kLookup, kStats };\n"
      "void Dispatch(Verb verb) {\n"
      "  switch (verb) {\n"
      "    case Verb::kHealth:\n"
      "      break;\n"
      "    default:\n"
      "      break;\n"
      "  }\n"
      "}\n"
      "}  // namespace fvae::net\n");
  EXPECT_TRUE(HasRule(findings, "verb-switch"));
}

TEST(VerbSwitchTest, NonEnumSwitchesAreIgnored) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "void F(int x) {\n"
      "  switch (x) {\n"
      "    case 1:\n"
      "      break;\n"
      "  }\n"
      "}\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- CFG construction ----------

/// Lexes `src` and builds the CFG of the first function body: the token
/// range between the first '{' and its matching '}'.
Cfg CfgOf(const std::string& src) {
  const std::vector<Tok> toks = LexCpp(src);
  size_t open = 0;
  while (open < toks.size() &&
         !(toks[open].kind == TokKind::kPunct && toks[open].text == "{")) {
    ++open;
  }
  int depth = 0;
  size_t close = open;
  for (; close < toks.size(); ++close) {
    if (toks[close].kind != TokKind::kPunct) continue;
    if (toks[close].text == "{") ++depth;
    if (toks[close].text == "}" && --depth == 0) break;
  }
  return BuildCfg(toks, open + 1, close);
}

TEST(CfgTest, IfElseFormsADiamond) {
  const Cfg cfg = CfgOf("void f() { if (a) { b(); } else { c(); } d(); }");
  EXPECT_FALSE(cfg.truncated);
  ASSERT_GE(cfg.nodes.size(), 5u);
  EXPECT_TRUE(cfg.reachable[Cfg::kExit]);
  // Some node branches two ways: the condition node.
  bool has_branch = false;
  for (const CfgNode& node : cfg.nodes) {
    if (node.succ.size() >= 2) has_branch = true;
  }
  EXPECT_TRUE(has_branch);
}

TEST(CfgTest, InfiniteLoopLeavesExitUnreachable) {
  // `for (;;)` with no break has no path to the function exit; the code
  // after the loop is dead.
  const Cfg cfg = CfgOf("void f() { for (;;) { tick(); } cleanup(); }");
  EXPECT_FALSE(cfg.truncated);
  EXPECT_FALSE(cfg.reachable[Cfg::kExit]);
}

TEST(CfgTest, BreakRestoresThePathToExit) {
  const Cfg cfg = CfgOf(
      "void f() { for (;;) { if (done) { break; } tick(); } cleanup(); }");
  EXPECT_FALSE(cfg.truncated);
  EXPECT_TRUE(cfg.reachable[Cfg::kExit]);
}

TEST(CfgTest, EarlyReturnMakesTrailingCodeUnreachable) {
  const Cfg cfg = CfgOf("void f() { a(); return; b(); }");
  EXPECT_FALSE(cfg.truncated);
  EXPECT_TRUE(cfg.reachable[Cfg::kExit]);
  // Find the node holding b() — it must be unreachable.
  bool found_dead_b = false;
  for (size_t n = 0; n < cfg.nodes.size(); ++n) {
    if (cfg.reachable[n]) continue;
    if (!cfg.nodes[n].stmts.empty()) found_dead_b = true;
  }
  EXPECT_TRUE(found_dead_b);
}

TEST(CfgTest, PathologicalNestingSetsTruncated) {
  std::string src = "void f() { ";
  for (int i = 0; i < 220; ++i) src += "if (x) { ";
  src += "y(); ";
  for (int i = 0; i < 220; ++i) src += "} ";
  src += "}";
  const Cfg cfg = CfgOf(src);
  EXPECT_TRUE(cfg.truncated);  // analyses must skip this function
}

// ---------- dataflow solver ----------

Cfg ChainCfg() {
  // entry(0) -> 2 -> 3 -> exit(1)
  Cfg cfg;
  cfg.nodes.resize(4);
  auto edge = [&cfg](size_t a, size_t b) {
    cfg.nodes[a].succ.push_back(b);
    cfg.nodes[b].pred.push_back(a);
  };
  edge(Cfg::kEntry, 2);
  edge(2, 3);
  edge(3, Cfg::kExit);
  cfg.reachable.assign(4, true);
  return cfg;
}

TEST(DataflowTest, BackwardDirectionPropagatesFromExit) {
  const Cfg cfg = ChainCfg();
  FlowState boundary;
  boundary.vals["q"] = Flow::kB;  // "q live at exit"
  auto transfer = [](size_t node, const FlowState& in) {
    FlowState out = in;
    if (node == 2) out.vals.erase("q");  // node 2 defines q: kills liveness
    return out;
  };
  auto join = [](FlowState* acc, const FlowState& other) {
    JoinFlowStates(acc, other, Flow::kA);
  };
  const auto result = SolveDataflow(cfg, DataflowDir::kBackward, boundary,
                                    FlowState{}, transfer, join);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.in[3].vals.count("q"), 1u);  // live between 2 and exit
  EXPECT_EQ(result.in[Cfg::kEntry].vals.count("q"), 0u);  // killed at 2
}

TEST(DataflowTest, DiamondJoinProducesMixed) {
  // entry -> {2, 3} -> 4 -> exit; only node 2 establishes x.
  Cfg cfg;
  cfg.nodes.resize(5);
  auto edge = [&cfg](size_t a, size_t b) {
    cfg.nodes[a].succ.push_back(b);
    cfg.nodes[b].pred.push_back(a);
  };
  edge(Cfg::kEntry, 2);
  edge(Cfg::kEntry, 3);
  edge(2, 4);
  edge(3, 4);
  edge(4, Cfg::kExit);
  cfg.reachable.assign(5, true);
  auto transfer = [](size_t node, const FlowState& in) {
    FlowState out = in;
    if (node == 2) out.vals["x"] = Flow::kB;
    return out;
  };
  auto join = [](FlowState* acc, const FlowState& other) {
    JoinFlowStates(acc, other, Flow::kA);
  };
  const auto result = SolveDataflow(cfg, DataflowDir::kForward, FlowState{},
                                    FlowState{}, transfer, join);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.in[4].vals.count("x"), 1u);
  EXPECT_EQ(result.in[4].vals.at("x"), Flow::kMixed);
}

TEST(DataflowTest, BudgetBoundsNonMonotoneTransfers) {
  // A transfer that flips x on every visit of node 3 never reaches a
  // fixpoint on the 2 <-> 3 cycle; the per-function budget must stop the
  // solve and mark it non-converged instead of hanging.
  Cfg cfg;
  cfg.nodes.resize(4);
  auto edge = [&cfg](size_t a, size_t b) {
    cfg.nodes[a].succ.push_back(b);
    cfg.nodes[b].pred.push_back(a);
  };
  edge(Cfg::kEntry, 2);
  edge(2, 3);
  edge(3, 2);
  edge(3, Cfg::kExit);
  cfg.reachable.assign(4, true);
  auto transfer = [](size_t node, const FlowState& in) {
    FlowState out = in;
    if (node == 3) {
      if (out.vals.count("x") > 0) {
        out.vals.erase("x");
      } else {
        out.vals["x"] = Flow::kB;
      }
    }
    return out;
  };
  auto join = [](FlowState* acc, const FlowState& other) {
    JoinFlowStates(acc, other, Flow::kA);
  };
  const auto result = SolveDataflow(cfg, DataflowDir::kForward, FlowState{},
                                    FlowState{}, transfer, join);
  EXPECT_FALSE(result.converged);
}

TEST(DataflowTest, TruncatedCfgNeverConverges) {
  Cfg cfg;
  cfg.nodes.resize(2);
  cfg.reachable.assign(2, true);
  cfg.truncated = true;
  auto transfer = [](size_t, const FlowState& in) { return in; };
  auto join = [](FlowState* acc, const FlowState& other) {
    JoinFlowStates(acc, other, Flow::kA);
  };
  const auto result = SolveDataflow(cfg, DataflowDir::kForward, FlowState{},
                                    FlowState{}, transfer, join);
  EXPECT_FALSE(result.converged);
}

// ---------- whole-program: status-path ----------

TEST(StatusPathTest, StatusDroppedOnEveryPathFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void F() {\n"
      "    Status st = Step();\n"
      "    counter_ = counter_ + 1;\n"
      "  }\n"
      " private:\n"
      "  int counter_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "status-path"));
}

TEST(StatusPathTest, StatusDroppedOnSomePathFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void F() {\n"
      "    Status st = Step();\n"
      "    if (counter_ > 0) {\n"
      "      return;\n"  // drops st on this path only
      "    }\n"
      "    (void)st;\n"
      "  }\n"
      " private:\n"
      "  int counter_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "status-path"));
  bool some_path = false;
  for (const Finding& f : findings) {
    if (f.rule == "status-path" &&
        f.message.find("some path") != std::string::npos) {
      some_path = true;
    }
  }
  EXPECT_TRUE(some_path);
}

TEST(StatusPathTest, CheckedOnEveryPathStaysSilent) {
  // Control-flow twin of the fixtures above: every path consumes st.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void F() {\n"
      "    Status st = Step();\n"
      "    if (!st.ok()) {\n"
      "      return;\n"
      "    }\n"
      "    (void)st;\n"
      "  }\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "status-path"));
}

TEST(StatusPathTest, OverwritingUnconsumedStatusFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  Status F() {\n"
      "    Status st = Step();\n"
      "    st = Step();\n"  // first result silently dropped
      "    return st;\n"
      "  }\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "status-path"));
  EXPECT_NE(findings[0].message.find("overwritten"), std::string::npos)
      << findings[0].message;
}

TEST(StatusPathTest, SummariesDistinguishConsumingCallees) {
  // Stash is resolvable and does NOT take a Status parameter, so passing
  // st to it is not consumption; Check takes one, so it is. Both callees
  // are defined in the TU — an unresolvable callee would silence both.
  const auto fire = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Stash(int v) { counter_ = v; }\n"
      "  void F() {\n"
      "    Status st = Step();\n"
      "    Stash(st);\n"
      "  }\n"
      " private:\n"
      "  int counter_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_TRUE(HasRule(fire, "status-path"));
  const auto silent = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void Check(Status st) { (void)st; }\n"
      "  void F() {\n"
      "    Status st = Step();\n"
      "    Check(st);\n"
      "  }\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(silent, "status-path"));
}

TEST(StatusPathTest, SuppressionOnTheDeclarationLineIsHonored) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void F() {\n"
      "    Status st = Step();  // fvae-lint: allow(status-path)\n"
      "  }\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "status-path"));
}

// ---------- whole-program: resource-escape ----------

TEST(ResourceEscapeTest, TimerHandleDroppedOnSomePathFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class T {\n"
      " public:\n"
      "  void Arm() {\n"
      "    TimerId id = wheel_.Schedule(100, 0);\n"
      "    if (armed_ > 0) {\n"
      "      return;\n"  // the handle leaks here
      "    }\n"
      "    wheel_.Cancel(id);\n"
      "  }\n"
      " private:\n"
      "  TimerWheel wheel_;\n"
      "  int armed_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "resource-escape"));
}

TEST(ResourceEscapeTest, TimerHandleCancelledOrStoredStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class T {\n"
      " public:\n"
      "  void Arm() {\n"
      "    TimerId id = wheel_.Schedule(100, 0);\n"
      "    if (armed_ > 0) {\n"
      "      pending_ = id;\n"  // escapes into a member: tracked elsewhere
      "      return;\n"
      "    }\n"
      "    wheel_.Cancel(id);\n"
      "  }\n"
      " private:\n"
      "  TimerWheel wheel_;\n"
      "  TimerId pending_;\n"
      "  int armed_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "resource-escape"));
}

TEST(ResourceEscapeTest, WriterAbandonedOnVisibleEarlyReturnFires) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class W {\n"
      " public:\n"
      "  Status Save() {\n"
      "    AtomicFileWriter writer;\n"
      "    Status st = writer.Open(path_);\n"
      "    if (!st.ok()) {\n"
      "      return st;\n"  // neither Commit nor Abort on this path
      "    }\n"
      "    return writer.Commit();\n"
      "  }\n"
      " private:\n"
      "  std::string path_;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(findings, "resource-escape"));
}

TEST(ResourceEscapeTest, WriterAbortedOnEveryPathStaysSilent) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class W {\n"
      " public:\n"
      "  Status Save() {\n"
      "    AtomicFileWriter writer;\n"
      "    Status st = writer.Open(path_);\n"
      "    if (!st.ok()) {\n"
      "      writer.Abort();\n"
      "      return st;\n"
      "    }\n"
      "    return writer.Commit();\n"
      "  }\n"
      " private:\n"
      "  std::string path_;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "resource-escape"));
}

TEST(ResourceEscapeTest, LocalFdRegistrationWithoutDelFires) {
  const auto fire = AnalyzeOne(
      "namespace fvae {\n"
      "class E {\n"
      " public:\n"
      "  void Watch() {\n"
      "    int fd = NewEventFd();\n"
      "    loop_.Add(fd, false, 0);\n"
      "    if (failed_ > 0) {\n"
      "      return;\n"  // fd stays registered with no owner
      "    }\n"
      "    loop_.Del(fd);\n"
      "  }\n"
      " private:\n"
      "  EpollLoop loop_;\n"
      "  int failed_ = 0;\n"
      "};\n"
      "}  // namespace fvae\n");
  ASSERT_TRUE(HasRule(fire, "resource-escape"));
  // Registering a *borrowed* descriptor (`.get()` of an owner that lives
  // on) creates no obligation here.
  const auto silent = AnalyzeOne(
      "namespace fvae {\n"
      "class E {\n"
      " public:\n"
      "  void Watch() {\n"
      "    int fd = conn_.get();\n"
      "    loop_.Add(fd, false, 0);\n"
      "  }\n"
      " private:\n"
      "  EpollLoop loop_;\n"
      "  Fd conn_;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(silent, "resource-escape"));
}

TEST(ResourceEscapeTest, UnownedRawDescriptorsFire) {
  // The fixture path is src/, not src/net/: the row covers every module.
  for (const char* expr :
       {"int a = ::socket(AF_INET, SOCK_STREAM, 0);",
        "int b = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK);",
        "int c = ::eventfd(0, EFD_NONBLOCK);",
        "int d = ::epoll_create1(EPOLL_CLOEXEC);",
        "const int e = open(\"/dev/null\", 0);"}) {
    const auto findings =
        AnalyzeOne(std::string("void F() {\n  ") + expr + "\n}\n");
    ASSERT_TRUE(HasRule(findings, "resource-escape")) << expr;
    EXPECT_NE(findings[0].message.find("raw descriptor"), std::string::npos);
  }
}

TEST(ResourceEscapeTest, OwnedOrReleasedDescriptorsStaySilent) {
  const auto findings = AnalyzeOne(
      "Fd F() {\n"
      "  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));\n"
      "  Fd conn(::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK));\n"
      "  wake_fd_.Reset(::eventfd(0, EFD_NONBLOCK));\n"
      "  epoll_fd_->Reset(\n"
      "      ::epoll_create1(EPOLL_CLOEXEC));\n"
      "  int r = file.open(\"x\");\n"
      "  int s = util::open(\"z\");\n"
      "  int closed = ::open(\"/dev/null\", 0);\n"
      "  ::close(closed);\n"
      "  int handed = ::socket(AF_INET, SOCK_STREAM, 0);\n"
      "  owner_.Reset(handed);\n"
      "  int returned = ::eventfd(0, 0);\n"
      "  return Fd(returned);\n"
      "}\n");
  EXPECT_FALSE(HasRule(findings, "resource-escape"))
      << findings[0].file << ":" << findings[0].line << " "
      << findings[0].message;
}

TEST(ResourceEscapeTest, SuppressionOnTheAcquireLineIsHonored) {
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class T {\n"
      " public:\n"
      "  void Arm() {\n"
      "    TimerId id = wheel_.Schedule(100, 0);"
      "  // fvae-lint: allow(resource-escape)\n"
      "    int raw = ::socket(AF_INET, SOCK_STREAM, 0);"
      "  // fvae-lint: allow(resource-escape)\n"
      "  }\n"
      " private:\n"
      "  TimerWheel wheel_;\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "resource-escape"));
}

// ---------- suppression lists ----------

TEST(SuppressionListTest, CommaListSuppressesEveryNamedRule) {
  // One line violating two whole-program rules, one list naming both.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class S {\n"
      " public:\n"
      "  void F() {\n"
      "    TimerId id = wheel_.Schedule(1, 0);\n"
      "    Status st = Step(value_);"
      "  // fvae-lint: allow(status-path, guarded-by, resource-escape)\n"
      "  }\n"
      " private:\n"
      "  TimerWheel wheel_;\n"
      "  Mutex mu_;\n"
      "  int value_ FVAE_GUARDED_BY(mu_);\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "status-path"));
  EXPECT_FALSE(HasRule(findings, "guarded-by"));
  // resource-escape reports at the Schedule() line, which the list does
  // not cover — proving the list only applies to its own line.
  EXPECT_TRUE(HasRule(findings, "resource-escape"));
}

TEST(SuppressionListTest, ListDoesNotSuppressUnnamedRules) {
  const auto findings = Lint(
      "void f() {\n"
      "  std::mutex m;  // fvae-lint: allow(banned-random,raw-socket)\n"
      "}\n");
  EXPECT_TRUE(HasRule(findings, "raw-mutex"));
}

TEST(SuppressionListTest, SingleRuleSpellingStillWorks) {
  // The pre-list grammar is the one-element case of the same parser.
  const auto findings = Lint(
      "void f() {\n"
      "  std::mutex m;  // fvae-lint: allow(raw-mutex)\n"
      "}\n");
  EXPECT_FALSE(HasRule(findings, "raw-mutex"));
  const auto list = Lint(
      "void f() {\n"
      "  std::mutex m;  // fvae-lint: allow(raw-mutex, banned-random)\n"
      "}\n");
  EXPECT_FALSE(HasRule(list, "raw-mutex"));
}

// ---------- path-sensitive corrections to the legacy analyses ----------

TEST(EventLoopTest, BlockingCallInDeadCodeStaysSilent) {
  // The CFG proves the ::poll is unreachable (it follows a return), so
  // the event-loop analysis must not flag it; its reachable twin in
  // BlockingCallInLoopCallbackFires above does fire.
  const auto findings = AnalyzeOne(
      "namespace fvae {\n"
      "class L {\n"
      " public:\n"
      "  FVAE_EVENT_LOOP void OnReady() {\n"
      "    Dispatch();\n"
      "    return;\n"
      "    ::usleep(1000);\n"
      "  }\n"
      "  void Dispatch() {}\n"
      "};\n"
      "}  // namespace fvae\n");
  EXPECT_FALSE(HasRule(findings, "loop-block"));
}

// ---------- self-runtime timing ----------

TEST(LintTimingTest, FullTreeRunPopulatesTimings) {
  LintTimings timings;
  // Only the timing side channel matters here; findings are asserted on
  // by RepositoryIsClean below.
  (void)LintTree(FVAE_SOURCE_DIR, &timings);
  EXPECT_GT(timings.file_count, 100u);
  // One row per pass, in run order; a missing or zero row means a pass
  // was silently skipped. The names are the JSON report's keys.
  std::vector<std::string> phases;
  for (const auto& [phase, ms] : timings.phases) {
    phases.push_back(phase);
    EXPECT_GT(ms, 0.0) << phase;
  }
  EXPECT_EQ(phases, (std::vector<std::string>{
                        "scan", "per_file", "link", "cfg", "lock_cycle",
                        "hot_path", "event_loop", "guarded_by",
                        "verb_switch", "status_path", "resource_escape"}));
  // Timing regression gate: the whole-tree run must stay far inside the
  // fvae_lint ctest's 5 s budget, path-sensitive passes included.
  EXPECT_LT(timings.total_ms(), 5000.0);
}

// ---------- the tree itself ----------

TEST(LintTreeTest, RepositoryIsClean) {
  const std::vector<Finding> findings = LintTree(FVAE_SOURCE_DIR);
  for (const Finding& finding : findings) {
    ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                  << finding.rule << "] " << finding.message;
  }
}

}  // namespace
}  // namespace fvae::lint
