#include "support/env.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "support/logging.hh"

extern char **environ;

namespace cherivoke {

const std::vector<KnobSpec> &
knobTable()
{
    using enum KnobType;
    // Each default is a value its own knob accepts, and equals the
    // library default the knob overrides (sim::ExperimentConfig,
    // revoke::BackendConfig), so an unset knob and a knob set to its
    // printed default run the same configuration.
    static const std::vector<KnobSpec> table = {
        {"CHERIVOKE_ALLOCS_PER_COLOR", Int, "256", true,
         "allocations before a color cohort seals"},
        {"CHERIVOKE_ALLOC_CHURN", Int, "0", false,
         "alloc_hotpath churn-phase malloc/free pairs; 0 = half of "
         "CHERIVOKE_ALLOC_LIVE"},
        {"CHERIVOKE_ALLOC_LIVE", Int, "1000000", true,
         "alloc_hotpath live-allocation target"},
        {"CHERIVOKE_BACKEND", Text, "sweep", false,
         "revocation backend: sweep | color | objid"},
        {"CHERIVOKE_BENCH_ALLOCS", Int, "80000", true,
         "sweep_hotpath image size in allocations"},
        {"CHERIVOKE_BENCH_SECS", Real, "0.2", true,
         "sweep_hotpath minimum timing window per configuration, s"},
        {"CHERIVOKE_BG_SWEEPER", Int, "0", false,
         "non-zero runs a background sweeper thread per engine"},
        // cap::kMaxColors - 1: color 0 marks an uncolored capability.
        {"CHERIVOKE_COLORS", Unsigned, "16", true,
         "color-pool size of the color backend", 63},
        {"CHERIVOKE_EPOCH_DEADLINE_MS", Real, "0", false,
         "per-epoch background-sweeper deadline, ms; 0 = derive it "
         "from the sweep-cost model"},
        {"CHERIVOKE_FAULT_PLAN", Text, "", false,
         "chaos schedule kind@tenant:op[,...]; empty = none"},
        {"CHERIVOKE_FAULT_SEED", Int, "0", false,
         "seed of a generated fault plan (one injection per kind); "
         "0 = none. An explicit plan wins"},
        {"CHERIVOKE_FAULT_SUPERVISION_ONLY", Int, "0", false,
         "non-zero runs only fault_matrix's supervision cells"},
        {"CHERIVOKE_ID_COMPACT", Int, "4096", true,
         "retired object IDs that trigger a table-compaction epoch"},
        {"CHERIVOKE_MUTATOR_THREADS", Unsigned, "1", true,
         "modelled mutator threads per tenant"},
        {"CHERIVOKE_PAGE_BUDGET_MIB", Real, "0", false,
         "soft resident-page budget over shared tenant memory, MiB; "
         "0 = off"},
        {"CHERIVOKE_PAINT_SHARDS", Unsigned, "1", true,
         "quarantine bands painted concurrently at epoch open"},
        {"CHERIVOKE_POLICY", Text, "stop-the-world", false,
         "epoch policy: stw | stop-the-world | incremental | "
         "concurrent | adaptive"},
        {"CHERIVOKE_RECYCLE_FRACTION", Real, "0.5", true,
         "retired-color fraction that triggers a recycling scan"},
        {"CHERIVOKE_REMOTE_BATCH", Unsigned, "32", true,
         "remote frees per batch message between mutator threads"},
        {"CHERIVOKE_SWEEPER_RETRIES", Unsigned, "2", false,
         "watchdog retries before the degradation ladder fires"},
        {"CHERIVOKE_TENANT_AGG_ALLOCS", Int, "1000000", true,
         "aggregate live-allocation target of the tenant benches"},
        {"CHERIVOKE_TENANT_BACKENDS", TextList, "", false,
         "per-tenant backends, one per tenant, e.g. sweep,color"},
        {"CHERIVOKE_TENANT_CHURN", Unsigned, "4", false,
         "tenant_scale churn-phase spawn/retire cycles; 0 skips the "
         "phase, 1 runs 2"},
        {"CHERIVOKE_TENANT_HEAP_MIB", Real, "0", false,
         "per-tenant live-heap target, MiB; 0 = the profile's own"},
        {"CHERIVOKE_TENANT_MAX", Unsigned, "8", true,
         "tenant count of alloc_hotpath, largest of tenant_scale"},
        {"CHERIVOKE_TENANT_POLICIES", TextList, "", false,
         "per-tenant epoch policies, one per tenant"},
        {"CHERIVOKE_TENANT_SCOPE", Text, "per-tenant", false,
         "what a tenant's quarantine trigger sweeps: per-tenant | "
         "global"},
        {"CHERIVOKE_TENANT_WEIGHTS", RealList, "", true,
         "tenant scheduling weights, one per tenant, e.g. 2,1,1"},
        {"CHERIVOKE_THREADS", Unsigned, "1", true,
         "sweep worker threads (sweeps without a cache model)"},
    };
    return table;
}

namespace {

std::vector<EnvKnob> &
knobRegistry()
{
    static std::vector<EnvKnob> registry;
    return registry;
}

const KnobSpec &
specOf(const char *name, KnobType type)
{
    for (const KnobSpec &spec : knobTable()) {
        if (std::strcmp(spec.name, name) != 0)
            continue;
        if (spec.type != type)
            panic("%s is read as the wrong type", name);
        return spec;
    }
    panic("%s is not declared in the knob table", name);
}

/** The knob's environment text, or its default; recorded. */
std::string
effectiveText(const KnobSpec &spec)
{
    const char *text = std::getenv(spec.name);
    const std::string value = text ? text : spec.fallback;
    std::vector<EnvKnob> &registry = knobRegistry();
    const EnvKnob read{spec.name, value, text != nullptr};
    const auto known = std::find_if(
        registry.begin(), registry.end(),
        [&](const EnvKnob &k) { return k.name == read.name; });
    if (known == registry.end())
        registry.push_back(read);
    else
        *known = read;
    return value;
}

std::string
boundText(const KnobSpec &spec)
{
    if (spec.max == KnobSpec{}.max)
        return spec.positive ? "> 0" : ">= 0";
    return (spec.positive ? "1.." : "0..") + std::to_string(spec.max);
}

/** fatal() unless @p value, parsed from @p text, meets the bound. */
template <typename T>
void
checkBound(const KnobSpec &spec, const std::string &text, T value)
{
    if (!(value >= 0) || (spec.positive && value == 0) ||
        value > spec.max)
        fatal("%s: %s is out of range (must be %s)", spec.name,
              text.c_str(), boundText(spec).c_str());
}

int64_t
integer(const KnobSpec &spec)
{
    const std::string text = effectiveText(spec);
    int64_t value = 0;
    if (!parseI64(text, value))
        fatal("%s: expected an integer, got '%s'", spec.name,
              text.c_str());
    checkBound(spec, text, value);
    return value;
}

double
real(const KnobSpec &spec, const std::string &text)
{
    double value = 0;
    if (!parseF64(text, value))
        fatal("%s: expected a number, got '%s'", spec.name,
              text.c_str());
    checkBound(spec, text, value);
    return value;
}

/** Split a list knob's text on commas; unset means empty. */
std::vector<std::string>
items(const KnobSpec &spec)
{
    const std::string all = effectiveText(spec);
    std::vector<std::string> out;
    if (all.empty())
        return out;
    size_t pos = 0;
    while (pos <= all.size()) {
        const size_t comma = std::min(all.find(',', pos), all.size());
        out.push_back(all.substr(pos, comma - pos));
        if (out.back().empty())
            fatal("%s: empty item in list '%s'", spec.name,
                  all.c_str());
        pos = comma + 1;
    }
    return out;
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

unsigned
knobUnsigned(const char *name)
{
    const KnobSpec &spec = specOf(name, KnobType::Unsigned);
    constexpr int64_t kMax = std::numeric_limits<unsigned>::max();
    const int64_t value = integer(spec);
    if (value > kMax)
        fatal("%s: %lld is above the maximum %lld", name,
              static_cast<long long>(value),
              static_cast<long long>(kMax));
    return static_cast<unsigned>(value);
}

int64_t
knobInt(const char *name)
{
    return integer(specOf(name, KnobType::Int));
}

double
knobReal(const char *name)
{
    const KnobSpec &spec = specOf(name, KnobType::Real);
    return real(spec, effectiveText(spec));
}

std::string
knobText(const char *name)
{
    return effectiveText(specOf(name, KnobType::Text));
}

std::vector<double>
knobRealList(const char *name)
{
    const KnobSpec &spec = specOf(name, KnobType::RealList);
    std::vector<double> values;
    for (const std::string &item : items(spec))
        values.push_back(real(spec, item));
    return values;
}

std::vector<std::string>
knobTextList(const char *name)
{
    return items(specOf(name, KnobType::TextList));
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
        const KnobSpec *nearest = nullptr;
        size_t best = ~size_t{0};
        for (const KnobSpec &spec : knobTable()) {
            const size_t d = editDistance(name, spec.name);
            if (d < best) {
                best = d;
                nearest = &spec;
            }
        }
        if (best != 0)
            fatal("%s: unknown CHERIVOKE_* knob (did you mean %s?)",
                  name.c_str(), nearest->name);
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

const std::vector<EnvKnob> &
envKnobs()
{
    return knobRegistry();
}

void
announceEnvKnobs()
{
    std::fprintf(stderr, "Effective CHERIVOKE_* knobs:\n");
    if (envKnobs().empty())
        std::fprintf(stderr, "  (none read)\n");
    for (const EnvKnob &knob : envKnobs()) {
        std::fprintf(stderr, "  %-32s = %s (%s)\n", knob.name.c_str(),
                     knob.value.empty() ? "(unset)"
                                        : knob.value.c_str(),
                     knob.fromEnv ? "env" : "default");
    }
    std::fprintf(stderr, "\n");
}

void
printKnobTable(std::FILE *out)
{
    for (const KnobSpec &spec : knobTable()) {
        std::fprintf(out, "%-33s %-15s %s", spec.name,
                     spec.fallback[0] ? spec.fallback : "(unset)",
                     spec.help);
        if (spec.type != KnobType::Text &&
            spec.type != KnobType::TextList)
            std::fprintf(out, " (%s)", boundText(spec).c_str());
        std::fputc('\n', out);
    }
}

} // namespace cherivoke
