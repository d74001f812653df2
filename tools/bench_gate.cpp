/**
 * @file
 * bench-gate: the perf-trajectory gate over bench_micro's JSON report.
 *
 *     bench-gate <bench_micro.json> <BENCH_trajectory.json>
 *                [--append] [--tolerance PCT]
 *
 * Reads the google-benchmark JSON written by `bench_micro --json`,
 * refuses non-release numbers (context key `create_build_type`, stamped
 * by bench_micro itself from NDEBUG -- `library_build_type` only
 * describes how the *benchmark library* was compiled, and e.g. Debian
 * ships a debug libbenchmark inside release distros; it is used as a
 * fallback only when the create stamp is absent, i.e. on reports from
 * older binaries), and compares the gate benchmarks
 *
 *     BM_IntGemm/64, BM_FaultyLinear, BM_EvaluateManip/1
 *
 * against the most recent BENCH_trajectory.json entry measured on the
 * same SIMD tier (context key `create_simd`; comparing an AVX-512 run
 * against an SSE2 baseline would only ever flag improvements). A gate
 * benchmark more than --tolerance percent slower (default 25) fails the
 * gate. With --append, every benchmark's time is appended to the
 * trajectory as one dated entry (the repo's flat JsonRecord format), so
 * the trajectory file doubles as the perf history of the hot path. The
 * time is cpu time, or real time for benchmarks registered with
 * UseRealTime() (recorded under the name without google-benchmark's
 * "/real_time" suffix).
 *
 * The trajectory lives at BENCH_trajectory.json in the repo root and is
 * regenerated/extended on dedicated hardware; CI runs the gate with its
 * own fresh numbers mostly as a crash/build-type guard -- shared-runner
 * wall clock is noisy, which is what the 25% band absorbs.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"

namespace {

/** Minimal JSON DOM: just enough for google-benchmark reports. */
struct Jv
{
    enum Type
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };
    Type type = Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Jv> arr;
    std::vector<std::pair<std::string, Jv>> obj;

    const Jv* find(const std::string& key) const
    {
        for (const auto& [k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
    std::string text(const std::string& key,
                     const std::string& dflt = "") const
    {
        const Jv* v = find(key);
        return v && v->type == Str ? v->str : dflt;
    }
};

/** Recursive-descent JSON parser (throws std::runtime_error). */
class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    Jv parse()
    {
        const Jv v = value();
        ws();
        if (i_ != s_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void fail(const char* what) const
    {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(i_) + ": " + what);
    }
    void ws()
    {
        while (i_ < s_.size() && std::isspace(
                                     static_cast<unsigned char>(s_[i_])))
            ++i_;
    }
    char peek()
    {
        ws();
        if (i_ >= s_.size())
            fail("unexpected end");
        return s_[i_];
    }
    void expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++i_;
    }
    bool consume(char c)
    {
        if (i_ < s_.size() && peek() == c) {
            ++i_;
            return true;
        }
        return false;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                if (i_ >= s_.size())
                    fail("bad escape");
                const char e = s_[i_++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u':
                    // Benchmark names/context are ASCII; keep the
                    // escaped form rather than decoding UTF-16 pairs.
                    if (i_ + 4 > s_.size())
                        fail("bad \\u escape");
                    out += "\\u";
                    out.append(s_, i_, 4);
                    i_ += 4;
                    continue;
                  default: c = e; break;
                }
            }
            out += c;
        }
        expect('"');
        return out;
    }

    Jv value()
    {
        const char c = peek();
        Jv v;
        if (c == '{') {
            ++i_;
            v.type = Jv::Obj;
            if (!consume('}')) {
                do {
                    std::string key = string();
                    expect(':');
                    v.obj.emplace_back(std::move(key), value());
                } while (consume(','));
                expect('}');
            }
        } else if (c == '[') {
            ++i_;
            v.type = Jv::Arr;
            if (!consume(']')) {
                do
                    v.arr.push_back(value());
                while (consume(','));
                expect(']');
            }
        } else if (c == '"') {
            v.type = Jv::Str;
            v.str = string();
        } else if (c == 't' || c == 'f') {
            v.type = Jv::Bool;
            v.boolean = c == 't';
            i_ += v.boolean ? 4 : 5;
            if (i_ > s_.size())
                fail("bad literal");
        } else if (c == 'n') {
            i_ += 4;
            if (i_ > s_.size())
                fail("bad literal");
        } else {
            v.type = Jv::Num;
            char* end = nullptr;
            v.num = std::strtod(s_.c_str() + i_, &end);
            if (end == s_.c_str() + i_)
                fail("bad number");
            i_ = static_cast<std::size_t>(end - s_.c_str());
        }
        return v;
    }

    const std::string& s_;
    std::size_t i_ = 0;
};

double
unitToNs(const std::string& unit)
{
    if (unit == "ns" || unit.empty())
        return 1.0;
    if (unit == "us")
        return 1e3;
    if (unit == "ms")
        return 1e6;
    if (unit == "s")
        return 1e9;
    std::fprintf(stderr, "bench-gate: unknown time_unit '%s', assuming ns\n",
                 unit.c_str());
    return 1.0;
}

/** "isa=avx2 (supported: ...)" -> "avx2"; "" when absent/unparseable. */
std::string
isaTier(const std::string& simdReport)
{
    const std::string tag = "isa=";
    const std::size_t p = simdReport.find(tag);
    if (p == std::string::npos)
        return "";
    std::size_t e = p + tag.size();
    while (e < simdReport.size() &&
           !std::isspace(static_cast<unsigned char>(simdReport[e])))
        ++e;
    return simdReport.substr(p + tag.size(), e - p - tag.size());
}

/** The benchmarks whose regressions fail the gate. */
const char* const kGateBenches[] = {"BM_IntGemm/64", "BM_FaultyLinear",
                                    "BM_EvaluateManip/1"};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bench-gate <bench_micro.json> <BENCH_trajectory.json> "
        "[--append] [--tolerance PCT]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string benchPath, trajPath;
    bool append = false;
    double tolerance = 25.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--append") {
            append = true;
        } else if (arg == "--tolerance" && i + 1 < argc) {
            tolerance = std::atof(argv[++i]);
        } else if (benchPath.empty()) {
            benchPath = arg;
        } else if (trajPath.empty()) {
            trajPath = arg;
        } else {
            return usage();
        }
    }
    if (benchPath.empty() || trajPath.empty())
        return usage();

    std::ifstream in(benchPath);
    if (!in) {
        std::fprintf(stderr, "bench-gate: cannot read %s\n",
                     benchPath.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    Jv root;
    try {
        root = JsonParser(buf.str()).parse();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench-gate: %s: %s\n", benchPath.c_str(),
                     e.what());
        return 1;
    }

    const Jv* ctx = root.find("context");
    if (!ctx || ctx->type != Jv::Obj) {
        std::fprintf(stderr, "bench-gate: %s has no context object\n",
                     benchPath.c_str());
        return 1;
    }

    // Release gate: perf numbers from a debug build are not numbers.
    const std::string createType = ctx->text("create_build_type");
    const std::string libType = ctx->text("library_build_type");
    const std::string effType = !createType.empty() ? createType : libType;
    if (effType != "release") {
        std::fprintf(stderr,
                     "bench-gate: FAIL: report was measured by a '%s' "
                     "build (create_build_type=%s, library_build_type=%s); "
                     "rebuild with -DCMAKE_BUILD_TYPE=Release\n",
                     effType.c_str(),
                     createType.empty() ? "<absent>" : createType.c_str(),
                     libType.c_str());
        return 1;
    }

    const std::string simd = ctx->text("create_simd");
    const std::string tier = isaTier(simd);
    const std::string date = ctx->text("date");

    // Time (ns) per benchmark, aggregate runs skipped: cpu_time, or
    // real_time for benchmarks marked UseRealTime() (threaded ones, whose
    // cpu_time covers only the main thread). Those carry a "/real_time"
    // name suffix, which is dropped so the trajectory keys stay stable.
    const std::string realSuffix = "/real_time";
    std::vector<std::pair<std::string, double>> times;
    const Jv* benches = root.find("benchmarks");
    if (benches && benches->type == Jv::Arr) {
        for (const Jv& b : benches->arr) {
            if (b.type != Jv::Obj)
                continue;
            if (b.text("run_type", "iteration") != "iteration")
                continue;
            std::string name = b.text("name");
            const bool real =
                name.size() > realSuffix.size() &&
                name.compare(name.size() - realSuffix.size(),
                             realSuffix.size(), realSuffix) == 0;
            if (real)
                name.resize(name.size() - realSuffix.size());
            const Jv* t = b.find(real ? "real_time" : "cpu_time");
            if (!t || t->type != Jv::Num)
                continue;
            times.emplace_back(name, t->num * unitToNs(b.text("time_unit")));
        }
    }
    if (times.empty()) {
        std::fprintf(stderr, "bench-gate: %s contains no benchmark runs\n",
                     benchPath.c_str());
        return 1;
    }
    auto lookup = [&](const std::string& name) -> const double* {
        for (const auto& [n, t] : times)
            if (n == name)
                return &t;
        return nullptr;
    };

    // Baseline: newest trajectory entry from the same SIMD tier.
    std::vector<create::JsonRecord> traj;
    const bool haveTraj = create::readJsonRecords(trajPath, traj);
    const create::JsonRecord* base = nullptr;
    for (const auto& rec : traj)
        if (create::JsonRecord(rec).text("simd_tier") == tier)
            base = &rec;
    if (!haveTraj)
        std::fprintf(stderr,
                     "bench-gate: no trajectory at %s yet (first run?)\n",
                     trajPath.c_str());

    int failures = 0;
    if (base) {
        std::printf("bench-gate: comparing against '%s' (tier %s, "
                    "tolerance %.0f%%)\n",
                    base->name.c_str(), tier.c_str(), tolerance);
        for (const char* name : kGateBenches) {
            const double* now = lookup(name);
            const double prev = base->number(name, 0.0);
            if (!now || prev <= 0.0) {
                std::printf("  %-22s (not in both; skipped)\n", name);
                continue;
            }
            const double pct = 100.0 * (*now - prev) / prev;
            const bool bad = pct > tolerance;
            std::printf("  %-22s %12.1f ns  vs %12.1f ns  (%+.1f%%)%s\n",
                        name, *now, prev, pct, bad ? "  REGRESSION" : "");
            if (bad)
                ++failures;
        }
    } else {
        std::printf("bench-gate: no previous entry for tier '%s'; nothing "
                    "to compare\n",
                    tier.c_str());
    }

    if (append) {
        create::JsonRecord rec;
        rec.name = (date.empty() ? std::string("undated") : date) + "-" +
                   (tier.empty() ? "unknown" : tier);
        rec.strings.emplace_back("date", date);
        rec.strings.emplace_back("simd_tier", tier);
        rec.strings.emplace_back("simd", simd);
        rec.strings.emplace_back("build_type", effType);
        for (const auto& [name, t] : times)
            rec.numbers.emplace_back(name, t);
        traj.push_back(std::move(rec));
        if (!create::writeJsonRecords(trajPath, traj)) {
            std::fprintf(stderr, "bench-gate: cannot write %s\n",
                         trajPath.c_str());
            return 1;
        }
        std::printf("bench-gate: appended '%s' to %s (%zu entries)\n",
                    traj.back().name.c_str(), trajPath.c_str(),
                    traj.size());
    }

    if (failures) {
        std::fprintf(stderr,
                     "bench-gate: FAIL: %d gate benchmark%s regressed more "
                     "than %.0f%%\n",
                     failures, failures == 1 ? "" : "s", tolerance);
        return 1;
    }
    std::printf("bench-gate: OK (%zu benchmarks, tier %s, release build)\n",
                times.size(), tier.empty() ? "<none>" : tier.c_str());
    return 0;
}
