/**
 * @file
 * Strict environment-variable parsing for the bench/experiment
 * harness. An *unset* variable yields the caller's fallback, but a
 * set-and-malformed value (`CHERIVOKE_THREADS=abc`, `=3x`, `=`, out
 * of range…) throws FatalError with the offending text rather than
 * silently falling back — a mistyped sweep configuration must never
 * masquerade as a default run.
 */

#ifndef CHERIVOKE_SUPPORT_ENV_HH
#define CHERIVOKE_SUPPORT_ENV_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cherivoke {

/**
 * One entry of the knob registry: every env* query below records the
 * knob's name and *effective* value (the parsed environment text, or
 * the caller's fallback rendered as text), so a bench can print the
 * exact configuration it ran under — defaults included — in one
 * format from one place.
 */
struct EnvKnob
{
    std::string name;     //!< CHERIVOKE_* variable name
    std::string value;    //!< effective value, rendered as text
    bool fromEnv = false; //!< true when the environment supplied it
};

/** Strictly parse all of @p text as a decimal integer.
 *  @return false on empty input, trailing garbage, or overflow */
bool parseI64(const std::string &text, int64_t &out);

/** Strictly parse all of @p text as a floating-point number. */
bool parseF64(const std::string &text, double &out);

/**
 * Integer environment knob: @p fallback when unset; fatal() when set
 * but malformed or below @p min.
 */
int64_t envI64(const char *name, int64_t fallback, int64_t min = 1);

/** envI64 for an `unsigned` knob: also fatal() when the value does
 *  not fit in unsigned, rather than truncating it. */
unsigned envUnsigned(const char *name, unsigned fallback,
                     unsigned min = 1);

/** Floating-point environment knob; fatal() unless value >= @p min
 *  (strictly > when @p min is an exclusive bound of 0). */
double envF64(const char *name, double fallback, double min = 0);

/**
 * Comma-separated list of positive doubles (e.g. tenant scheduling
 * weights, `CHERIVOKE_TENANT_WEIGHTS=2,1,1`). Unset → empty vector;
 * malformed or non-positive entries → fatal().
 */
std::vector<double> envF64List(const char *name);

/** String environment knob: @p fallback when unset (no validation
 *  beyond non-emptiness of the registry record). */
std::string envStr(const char *name, const std::string &fallback);

/**
 * Comma-separated list of raw strings (the caller validates each
 * item, e.g. against a policy or backend name table). Unset → empty
 * vector; set-but-empty items → fatal().
 */
std::vector<std::string> envStrList(const char *name);

/**
 * Reject misspelled knobs: scan the process environment for
 * CHERIVOKE_* variables and fatal() on any name not in the known-knob
 * table, suggesting the nearest known knob by edit distance
 * (`CHERIVOKE_BACKEDN` → "did you mean CHERIVOKE_BACKEND?"). A typo'd
 * knob silently running the default configuration is the one strict
 * parsing cannot catch — the variable is simply never queried.
 * Benches call this before parsing their configuration.
 */
void validateEnvironment();

/** The known-knob table validateEnvironment() checks against (full
 *  CHERIVOKE_-prefixed names, sorted). Exposed for tests. */
const std::vector<std::string> &knownEnvKnobs();

/** Every knob queried so far, in first-query order; a repeated
 *  query updates its recorded value in place. */
const std::vector<EnvKnob> &envKnobs();

/** Print `name = value (env|default)` lines for every recorded
 *  knob (the bench startup "effective knob set" block). */
void printEnvKnobs(std::FILE *out);

/** The full startup block — header, knob lines, blank line — on
 *  stderr, so figure data on stdout stays byte-stable. */
void announceEnvKnobs();

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_ENV_HH
