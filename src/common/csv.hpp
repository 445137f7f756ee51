// CSV record reader used by the trace importer.
//
// RFC 4180 style: fields containing the delimiter, quotes, or newlines are
// wrapped in double quotes, and embedded quotes are doubled. A record ends
// at an unquoted \n, \r\n or lone \r, or at the end of the input. This is
// enough to read every file the library produces.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mcs {

/// Reads comma-separated records one at a time. The stream is pulled in
/// fixed-size blocks with istream::read; a record that crosses a block
/// boundary carries over into the next block. Blank lines (records of one
/// empty field) are skipped.
class CsvReader {
public:
    /// Bytes pulled from the stream per read.
    static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

    explicit CsvReader(std::istream& in);

    /// Advances to the next non-blank record; false at the end of input.
    bool next();

    /// Field count of the current record.
    std::size_t size() const { return ends_.size(); }

    /// Field `k` of the current record, unquoted; valid until next().
    std::string_view field(std::size_t k) const;

private:
    bool read_record();
    bool refill();
    bool peek_is(char c);

    std::istream& in_;
    std::vector<char> block_;
    const char* pos_ = nullptr;
    const char* end_ = nullptr;
    std::string record_;             // the current record's fields, unquoted
    std::vector<std::size_t> ends_;  // end offset of each field in record_
};

}  // namespace mcs
