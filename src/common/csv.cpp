#include "common/csv.hpp"

#include <istream>

#include "common/check.hpp"

namespace mcs {

namespace {

// Bytes that end an unquoted run of field characters.
bool is_special(char c) {
    return c == ',' || c == '"' || c == '\n' || c == '\r';
}

}  // namespace

CsvReader::CsvReader(std::istream& in) : in_(in), block_(kBlockBytes) {}

bool CsvReader::next() {
    while (read_record()) {
        if (ends_.size() != 1 || !record_.empty()) {
            return true;
        }
    }
    return false;
}

std::string_view CsvReader::field(std::size_t k) const {
    MCS_CHECK(k < ends_.size());
    const std::size_t begin = k == 0 ? 0 : ends_[k - 1];
    return std::string_view(record_).substr(begin, ends_[k] - begin);
}

bool CsvReader::refill() {
    in_.read(block_.data(), static_cast<std::streamsize>(block_.size()));
    pos_ = block_.data();
    end_ = pos_ + in_.gcount();
    return pos_ != end_;
}

bool CsvReader::peek_is(char c) {
    return (pos_ != end_ || refill()) && *pos_ == c;
}

// Parses one record (it may span lines inside quotes). Returns false at
// the end of input with no byte consumed.
bool CsvReader::read_record() {
    record_.clear();
    ends_.clear();
    if (pos_ == end_ && !refill()) {
        return false;
    }
    bool in_quotes = false;
    while (pos_ != end_ || refill()) {
        if (in_quotes) {
            const char* run = pos_;
            while (run != end_ && *run != '"') {
                ++run;
            }
            record_.append(pos_, run);
            pos_ = run;
            if (run == end_) {
                continue;
            }
            ++pos_;
            if (peek_is('"')) {  // escaped quote
                record_.push_back('"');
                ++pos_;
            } else {
                in_quotes = false;
            }
            continue;
        }
        const char* run = pos_;
        while (run != end_ && !is_special(*run)) {
            ++run;
        }
        record_.append(pos_, run);
        pos_ = run;
        if (run == end_) {
            continue;
        }
        const char c = *pos_++;
        if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            ends_.push_back(record_.size());
        } else {
            if (c == '\r' && peek_is('\n')) {
                ++pos_;
            }
            break;
        }
    }
    ends_.push_back(record_.size());
    return true;
}

}  // namespace mcs
