#include "support/env.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "support/logging.hh"

extern char **environ;

namespace cherivoke {

namespace {

std::vector<EnvKnob> &
knobRegistry()
{
    static std::vector<EnvKnob> registry;
    return registry;
}

void
recordKnob(const char *name, std::string value, bool from_env)
{
    for (EnvKnob &knob : knobRegistry()) {
        if (knob.name == name) {
            knob.value = std::move(value);
            knob.fromEnv = from_env;
            return;
        }
    }
    knobRegistry().push_back(EnvKnob{name, std::move(value), from_env});
}

std::string
renderF64(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

/** Classic Levenshtein distance, small-string sizes only. */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            const size_t up = row[j];
            const size_t subst =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

const std::vector<std::string> &
knownEnvKnobs()
{
    // Every CHERIVOKE_* environment variable any binary in this repo
    // reads. A knob added anywhere must be added here, or
    // validateEnvironment() rejects it — which is the point: the
    // table is the single registry a typo is checked against.
    static const std::vector<std::string> known = {
        "CHERIVOKE_ALLOCS_PER_COLOR",
        "CHERIVOKE_ALLOC_CHURN",
        "CHERIVOKE_ALLOC_LIVE",
        "CHERIVOKE_BACKEND",
        "CHERIVOKE_BENCH_ALLOCS",
        "CHERIVOKE_BENCH_SECS",
        "CHERIVOKE_BG_SWEEPER",
        "CHERIVOKE_COLORS",
        "CHERIVOKE_EPOCH_DEADLINE_MS",
        "CHERIVOKE_FAULT_PLAN",
        "CHERIVOKE_FAULT_SEED",
        "CHERIVOKE_FAULT_SUPERVISION_ONLY",
        "CHERIVOKE_ID_COMPACT",
        "CHERIVOKE_MSGPASS_ENTRIES",
        "CHERIVOKE_MUTATOR_OPS",
        "CHERIVOKE_MUTATOR_THREADS",
        "CHERIVOKE_PAGE_BUDGET_MIB",
        "CHERIVOKE_PAINT_SHARDS",
        "CHERIVOKE_POLICY",
        "CHERIVOKE_RECYCLE_FRACTION",
        "CHERIVOKE_REMOTE_BATCH",
        "CHERIVOKE_SWEEPER_RETRIES",
        "CHERIVOKE_TENANTS",
        "CHERIVOKE_TENANT_AGG_ALLOCS",
        "CHERIVOKE_TENANT_BACKENDS",
        "CHERIVOKE_TENANT_CHURN",
        "CHERIVOKE_TENANT_HEAP_MIB",
        "CHERIVOKE_TENANT_MAX",
        "CHERIVOKE_TENANT_POLICIES",
        "CHERIVOKE_TENANT_SCOPE",
        "CHERIVOKE_TENANT_WEIGHTS",
        "CHERIVOKE_TEST_KNOB",
        "CHERIVOKE_THREADS",
    };
    return known;
}

void
validateEnvironment()
{
    for (char **env = environ; env && *env; ++env) {
        const std::string entry(*env);
        if (entry.rfind("CHERIVOKE_", 0) != 0)
            continue;
        const std::string name =
            entry.substr(0, std::min(entry.find('='), entry.size()));
        bool known = false;
        for (const std::string &knob : knownEnvKnobs()) {
            if (knob == name) {
                known = true;
                break;
            }
        }
        if (known)
            continue;
        const std::string *nearest = nullptr;
        size_t best = ~size_t{0};
        for (const std::string &knob : knownEnvKnobs()) {
            const size_t d = editDistance(name, knob);
            if (d < best) {
                best = d;
                nearest = &knob;
            }
        }
        fatal("%s: unknown CHERIVOKE_* knob (did you mean %s?)",
              name.c_str(), nearest->c_str());
    }
}

const std::vector<EnvKnob> &
envKnobs()
{
    return knobRegistry();
}

void
printEnvKnobs(std::FILE *out)
{
    if (envKnobs().empty()) {
        std::fprintf(out, "  (none queried)\n");
        return;
    }
    for (const EnvKnob &knob : envKnobs()) {
        std::fprintf(out, "  %-26s = %s (%s)\n", knob.name.c_str(),
                     knob.value.empty() ? "(unset)"
                                        : knob.value.c_str(),
                     knob.fromEnv ? "env" : "default");
    }
}

bool
parseI64(const std::string &text, int64_t &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = static_cast<int64_t>(v);
    return true;
}

bool
parseF64(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

void
announceEnvKnobs()
{
    std::fprintf(stderr, "Effective CHERIVOKE_* knobs:\n");
    printEnvKnobs(stderr);
    std::fprintf(stderr, "\n");
}

int64_t
envI64(const char *name, int64_t fallback, int64_t min)
{
    const char *text = std::getenv(name);
    if (!text) {
        recordKnob(name, std::to_string(fallback), false);
        return fallback;
    }
    int64_t value = 0;
    if (!parseI64(text, value))
        fatal("%s: expected an integer, got '%s'", name, text);
    if (value < min)
        fatal("%s: %lld is below the minimum %lld", name,
              static_cast<long long>(value),
              static_cast<long long>(min));
    recordKnob(name, std::to_string(value), true);
    return value;
}

unsigned
envUnsigned(const char *name, unsigned fallback, unsigned min)
{
    constexpr int64_t kMax = std::numeric_limits<unsigned>::max();
    const int64_t value = envI64(name, fallback, min);
    if (value > kMax)
        fatal("%s: %lld is above the maximum %lld", name,
              static_cast<long long>(value),
              static_cast<long long>(kMax));
    return static_cast<unsigned>(value);
}

double
envF64(const char *name, double fallback, double min)
{
    const char *text = std::getenv(name);
    if (!text) {
        recordKnob(name, renderF64(fallback), false);
        return fallback;
    }
    double value = 0;
    if (!parseF64(text, value))
        fatal("%s: expected a number, got '%s'", name, text);
    if (value < min || (min == 0 && value <= 0))
        fatal("%s: %g is out of range (must be %s %g)", name, value,
              min == 0 ? ">" : ">=", min);
    recordKnob(name, renderF64(value), true);
    return value;
}

std::vector<double>
envF64List(const char *name)
{
    const char *text = std::getenv(name);
    recordKnob(name, text ? text : "", text != nullptr);
    if (!text)
        return {};
    std::vector<double> values;
    const std::string all(text);
    size_t pos = 0;
    while (pos <= all.size()) {
        const size_t comma = std::min(all.find(',', pos), all.size());
        const std::string item = all.substr(pos, comma - pos);
        double value = 0;
        if (!parseF64(item, value) || value <= 0)
            fatal("%s: expected a comma-separated list of positive "
                  "numbers, got '%s'",
                  name, text);
        values.push_back(value);
        pos = comma + 1;
    }
    return values;
}

std::string
envStr(const char *name, const std::string &fallback)
{
    const char *text = std::getenv(name);
    recordKnob(name, text ? text : fallback, text != nullptr);
    return text ? text : fallback;
}

std::vector<std::string>
envStrList(const char *name)
{
    const char *text = std::getenv(name);
    recordKnob(name, text ? text : "", text != nullptr);
    if (!text)
        return {};
    std::vector<std::string> items;
    const std::string all(text);
    size_t pos = 0;
    while (pos <= all.size()) {
        const size_t comma = std::min(all.find(',', pos), all.size());
        const std::string item = all.substr(pos, comma - pos);
        if (item.empty())
            fatal("%s: empty item in list '%s'", name, text);
        items.push_back(item);
        pos = comma + 1;
    }
    return items;
}

} // namespace cherivoke
