// Small string-formatting helpers shared by the eval harness and benches.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mcs {

/// Format a double with `precision` digits after the decimal point, as
/// printf("%.*f") does.
std::string format_fixed(double value, int precision);

/// Room put_fixed needs: a sign, the 309 integer digits of the largest
/// double, the point and the decimals (6 for a negative precision).
constexpr std::size_t max_fixed_chars(int precision) {
    return std::numeric_limits<double>::max_exponent10 + 3 +
           static_cast<std::size_t>(precision < 0 ? 6 : precision);
}

/// Write format_fixed(value, precision) at `first`, which has room for
/// max_fixed_chars(precision) characters; returns the end of the text.
char* put_fixed(char* first, double value, int precision);

/// Format a ratio in [0,1] as a percentage string, e.g. 0.954 -> "95.4%".
std::string format_percent(double ratio, int precision = 1);

/// Left-pad `s` with spaces to at least `width` characters.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pad `s` with spaces to at least `width` characters.
std::string pad_right(const std::string& s, std::size_t width);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// Split a string on a single-character delimiter (keeps empty fields).
std::vector<std::string> split(const std::string& s, char delimiter);

/// Parse a double as strtod does; throws mcs::Error if the whole string is
/// not consumed.
double parse_double(std::string_view s);

/// Parse a base-10 long as strtol does; throws mcs::Error if the whole
/// string is not consumed.
long parse_long(std::string_view s);

/// Plain Levenshtein distance, for "did you mean ...?" hints.
std::size_t edit_distance(const std::string& a, const std::string& b);

/// Nearest candidate to `word` by edit distance, or "" when none is close
/// enough to plausibly be a typo (further than ~half the candidate away).
/// Shared by the CLI flag validator and the spec-grammar parsers.
std::string nearest_candidate(const std::string& word,
                              const std::vector<std::string>& candidates);

}  // namespace mcs
