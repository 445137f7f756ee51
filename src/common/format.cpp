#include "common/format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/check.hpp"

namespace mcs {

char* put_fixed(char* first, double value, int precision) {
    // to_chars prints the exactly rounded decimal, as printf does.
    return std::to_chars(first, first + max_fixed_chars(precision), value,
                         std::chars_format::fixed, precision)
        .ptr;
}

std::string format_fixed(double value, int precision) {
    std::string out(max_fixed_chars(precision), '\0');
    out.resize(static_cast<std::size_t>(
        put_fixed(out.data(), value, precision) - out.data()));
    return out;
}

std::string format_percent(double ratio, int precision) {
    return format_fixed(ratio * 100.0, precision) + "%";
}

std::string pad_left(const std::string& s, std::size_t width) {
    if (s.size() >= width) {
        return s;
    }
    return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
    if (s.size() >= width) {
        return s;
    }
    return s + std::string(width - s.size(), ' ');
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& separator) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) {
            out += separator;
        }
        out += parts[i];
    }
    return out;
}

std::vector<std::string> split(const std::string& s, char delimiter) {
    std::vector<std::string> out;
    std::string current;
    for (const char c : s) {
        if (c == delimiter) {
            out.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    out.push_back(current);
    return out;
}

// Both parsers take std::from_chars's value only when it reads the whole
// string without error; there it equals strtod's/strtol's. Everything else
// (a leading '+' or blank, hex, overflow, junk) goes to strtod/strtol, as
// does a NaN, whose payload only strtod keeps.
double parse_double(std::string_view s) {
    double value = 0.0;
    const auto [stop, ec] =
        std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec == std::errc() && stop == s.data() + s.size() &&
        !std::isnan(value)) {
        return value;
    }
    MCS_CHECK_MSG(!s.empty(), "parse_double: empty string");
    const std::string text(s);
    char* end = nullptr;
    value = std::strtod(text.c_str(), &end);
    MCS_CHECK_MSG(end == text.c_str() + text.size(),
                  "parse_double: invalid number: '" + text + "'");
    return value;
}

long parse_long(std::string_view s) {
    long value = 0;
    const auto [stop, ec] =
        std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec == std::errc() && stop == s.data() + s.size()) {
        return value;
    }
    MCS_CHECK_MSG(!s.empty(), "parse_long: empty string");
    const std::string text(s);
    char* end = nullptr;
    value = std::strtol(text.c_str(), &end, 10);
    MCS_CHECK_MSG(end == text.c_str() + text.size(),
                  "parse_long: invalid integer: '" + text + "'");
    return value;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) {
        row[j] = j;
    }
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t next =
                std::min({row[j] + 1, row[j - 1] + 1,
                          diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = row[j];
            row[j] = next;
        }
    }
    return row[b.size()];
}

std::string nearest_candidate(const std::string& word,
                              const std::vector<std::string>& candidates) {
    std::string nearest;
    std::size_t best = word.size() + 1;
    for (const std::string& candidate : candidates) {
        const std::size_t d = edit_distance(word, candidate);
        if (d < best) {
            best = d;
            nearest = candidate;
        }
    }
    // A hint further than ~half the candidate away is noise, not help.
    if (nearest.empty() || best > (nearest.size() + 1) / 2) {
        return "";
    }
    return nearest;
}

}  // namespace mcs
