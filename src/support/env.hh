/**
 * @file
 * The CHERIVOKE_* knob table and its strict parser. Every knob any
 * binary reads is declared once, in knobTable(): name, type, default,
 * bound and one line of help. That declaration drives parsing, the
 * unknown-knob hint, the effective-knob dump and the `config` block
 * of every BENCH_*.json. An unset knob takes its declared default; a
 * set-and-malformed value (`CHERIVOKE_THREADS=abc`, `=3x`, `=`, out
 * of range…) throws FatalError naming the knob rather than silently
 * falling back — a mistyped sweep configuration must never
 * masquerade as a default run.
 */

#ifndef CHERIVOKE_SUPPORT_ENV_HH
#define CHERIVOKE_SUPPORT_ENV_HH

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace cherivoke {

/** How a knob's text parses. */
enum class KnobType
{
    Unsigned, //!< decimal integer that fits in `unsigned`
    Int,      //!< decimal 64-bit integer
    Real,     //!< floating-point number
    Text,     //!< free text; the reader checks it against its names
    RealList, //!< comma-separated numbers; unset = empty
    TextList, //!< comma-separated non-empty items; unset = empty
};

/** One declared knob. */
struct KnobSpec
{
    const char *name;     //!< the CHERIVOKE_* variable
    KnobType type;
    const char *fallback; //!< the default, as the knob's own text
    /** Numbers and list items must be > 0; otherwise >= 0. */
    bool positive;
    const char *help;     //!< one line, printed by printKnobTable
    /** Largest value an integer knob accepts. */
    int64_t max = std::numeric_limits<int64_t>::max();
};

/** Every CHERIVOKE_* knob any binary reads, sorted by name. */
const std::vector<KnobSpec> &knobTable();

/**
 * Read a declared knob: its environment text, or its default when
 * unset, parsed as the declared type and checked against the
 * declared bound (fatal() otherwise). Each read is recorded for the
 * dump. Reading an undeclared knob, or as the wrong type, panics.
 */
/// @{
unsigned knobUnsigned(const char *name);
int64_t knobInt(const char *name);
double knobReal(const char *name);
std::string knobText(const char *name);
std::vector<double> knobRealList(const char *name);
std::vector<std::string> knobTextList(const char *name);
/// @}

/**
 * Reject misspelled knobs: fatal() on any CHERIVOKE_* variable in
 * the environment that knobTable() does not declare, suggesting the
 * nearest declared knob by edit distance (`CHERIVOKE_BACKEDN` →
 * "did you mean CHERIVOKE_BACKEND?"). A typo'd knob is never read,
 * so strict parsing alone cannot catch it.
 */
void validateEnvironment();

/** Strictly parse all of @p text as a decimal integer.
 *  @return false on empty input, trailing garbage, or overflow */
bool parseI64(const std::string &text, int64_t &out);

/** Strictly parse all of @p text as a floating-point number. */
bool parseF64(const std::string &text, double &out);

/** One knob this process has read, with the text it ran under. */
struct EnvKnob
{
    std::string name;     //!< CHERIVOKE_* variable name
    std::string value;    //!< effective value, as text
    bool fromEnv = false; //!< true when the environment supplied it
};

/** Every knob read so far, in first-read order. */
const std::vector<EnvKnob> &envKnobs();

/** `name = value (env|default)` for every knob read so far, under a
 *  header, on stderr, so figure data on stdout stays byte-stable. */
void announceEnvKnobs();

/** The whole table: name, default, bound and help, one per line. */
void printKnobTable(std::FILE *out);

} // namespace cherivoke

#endif // CHERIVOKE_SUPPORT_ENV_HH
