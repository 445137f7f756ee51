// Round-trip tests for the trace CSV import/export.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "corruption/existence.hpp"
#include "linalg/ops.hpp"
#include "trace/simulator.hpp"

namespace mcs {
namespace {

TEST(TraceIo, FullRoundTrip) {
    const TraceDataset ds = make_small_dataset(1, 6, 20);
    std::ostringstream out;
    write_trace_csv(out, ds);
    std::istringstream in(out.str());
    const ImportedTrace imported = read_trace_csv(in, 6, 20, ds.tau_s);
    EXPECT_TRUE(approx_equal(imported.dataset.x, ds.x, 1e-3));
    EXPECT_TRUE(approx_equal(imported.dataset.y, ds.y, 1e-3));
    EXPECT_TRUE(approx_equal(imported.dataset.vx, ds.vx, 1e-3));
    EXPECT_EQ(count_equal(imported.existence, 1.0), 6u * 20u);
}

TEST(TraceIo, MaskedExportSkipsMissing) {
    const TraceDataset ds = make_small_dataset(2, 5, 15);
    Rng rng(9);
    const Matrix mask = make_existence_mask(5, 15, 0.4, rng);
    std::ostringstream out;
    write_trace_csv(out, ds, mask);
    std::istringstream in(out.str());
    const ImportedTrace imported = read_trace_csv(in, 5, 15, ds.tau_s);
    EXPECT_TRUE(imported.existence == mask);
    // Missing cells must be zero after import.
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 15; ++j) {
            if (mask(i, j) == 0.0) {
                EXPECT_DOUBLE_EQ(imported.dataset.x(i, j), 0.0);
            }
        }
    }
}

TEST(TraceIo, HeaderIsStable) {
    const TraceDataset ds = make_small_dataset(3, 2, 5);
    std::ostringstream out;
    write_trace_csv(out, ds);
    EXPECT_EQ(out.str().substr(0, 42),
              "participant,slot,x_m,y_m,vx_mps,vy_mps\n0,0");
}

TEST(TraceIo, RejectsOutOfRangeRecords) {
    std::istringstream in(
        "participant,slot,x_m,y_m,vx_mps,vy_mps\n9,0,1,2,3,4\n");
    EXPECT_THROW(read_trace_csv(in, 5, 15, 30.0), Error);
    std::istringstream in2(
        "participant,slot,x_m,y_m,vx_mps,vy_mps\n0,99,1,2,3,4\n");
    EXPECT_THROW(read_trace_csv(in2, 5, 15, 30.0), Error);
}

TEST(TraceIo, RejectsDuplicateCells) {
    std::istringstream in(
        "participant,slot,x_m,y_m,vx_mps,vy_mps\n"
        "0,0,1,2,3,4\n0,0,5,6,7,8\n");
    EXPECT_THROW(read_trace_csv(in, 2, 2, 30.0), Error);
}

TEST(TraceIo, RejectsMissingColumns) {
    std::istringstream in("participant,slot,x_m\n0,0,1\n");
    EXPECT_THROW(read_trace_csv(in, 2, 2, 30.0), Error);
}

TEST(TraceIo, RejectsMalformedNumbers) {
    std::istringstream in(
        "participant,slot,x_m,y_m,vx_mps,vy_mps\n0,0,abc,2,3,4\n");
    EXPECT_THROW(read_trace_csv(in, 2, 2, 30.0), Error);
}

TEST(TraceIo, RejectsShortRecordsAgainstAWideHeader) {
    // vy_mps is the eighth column, so a six-field record lacks it.
    std::istringstream in(
        "a,b,participant,slot,x_m,y_m,vx_mps,vy_mps\n"
        "0,0,1,1,2,3,4,5\n0,0,0,0,1,2\n");
    try {
        read_trace_csv(in, 2, 2, 30.0);
        FAIL() << "a record without vy_mps was accepted";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("short record"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIo, ReadMissingFileThrows) {
    EXPECT_THROW(read_trace_csv_file("/nonexistent/file.csv", 2, 2, 30.0),
                 Error);
}

TEST(TraceIo, FileRoundTrip) {
    const TraceDataset ds = make_small_dataset(4, 3, 8);
    const std::string path = "/tmp/mcs_trace_io_test.csv";
    write_trace_csv_file(path, ds,
                         Matrix::constant(ds.participants(), ds.slots(), 1.0));
    const ImportedTrace imported = read_trace_csv_file(path, 3, 8, ds.tau_s);
    EXPECT_TRUE(approx_equal(imported.dataset.y, ds.y, 1e-3));
}

constexpr char kHeader[] = "participant,slot,x_m,y_m,vx_mps,vy_mps\n";

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// What the importer must read from a numeric field: strtod's value when it
// consumes the whole field (the importer's contract), else nothing.
bool strtod_whole(const std::string& field, double& value) {
    char* end = nullptr;
    value = std::strtod(field.c_str(), &end);
    return !field.empty() && end == field.c_str() + field.size();
}

// The cases the golden fixture pins, in a 4x4 dataset: x holds them in
// order, y reversed, vx and vy rotated (vy negated), and cell (1, 2) is
// not observed.
TraceDataset golden_dataset(Matrix& mask) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double values[] = {-0.0,   -1e-9,   0.0005,  0.0015,
                             2.5e15, 1e308,   -1e308,  nan,
                             inf,    -inf,    0.00005, 0.00015,
                             -4e-5,  12345.6789, -7.25, 1.0 / 3.0};
    const std::size_t n = 4;
    const std::size_t t = 4;
    TraceDataset ds{Matrix(n, t), Matrix(n, t), Matrix(n, t), Matrix(n, t),
                    30.0};
    for (std::size_t k = 0; k < n * t; ++k) {
        const std::size_t i = k / t;
        const std::size_t j = k % t;
        ds.x(i, j) = values[k];
        ds.y(i, j) = values[n * t - 1 - k];
        ds.vx(i, j) = values[(k + 5) % (n * t)];
        ds.vy(i, j) = -values[(k + 11) % (n * t)];
    }
    mask = Matrix::constant(n, t, 1.0);
    mask(1, 2) = 0.0;
    return ds;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// tests/data/trace_golden.csv holds the bytes the iostream writer wrote for
// golden_dataset(): signed zeros, values that round to zero, decimal ties
// that are not binary ties, 309-digit magnitudes, NaN and infinities.
TEST(TraceIo, WriterMatchesTheGoldenBytes) {
    Matrix mask;
    const TraceDataset ds = golden_dataset(mask);
    std::ostringstream out;
    write_trace_csv(out, ds, mask);
    EXPECT_EQ(out.str(), read_file(MCS_TEST_DATA_DIR "/trace_golden.csv"));
}

TEST(TraceIo, GoldenReadsBackAsPrinted) {
    const ImportedTrace back = read_trace_csv_file(
        MCS_TEST_DATA_DIR "/trace_golden.csv", 4, 4, 30.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(count_equal(back.existence, 1.0), 15u);
    EXPECT_EQ(back.existence(1, 2), 0.0);
    EXPECT_EQ(bits(back.dataset.x(0, 0)), bits(-0.0));  // "-0.000"
    EXPECT_EQ(bits(back.dataset.x(0, 1)), bits(-0.0));  // -1e-9
    EXPECT_EQ(back.dataset.x(0, 2), 0.001);             // 0.0005
    EXPECT_EQ(back.dataset.x(0, 3), 0.002);             // 0.0015
    EXPECT_EQ(back.dataset.x(1, 0), 2.5e15);
    EXPECT_EQ(back.dataset.x(1, 1), 1e308);
    EXPECT_TRUE(std::isnan(back.dataset.x(1, 3)));
    EXPECT_EQ(back.dataset.x(2, 0), inf);
    EXPECT_EQ(back.dataset.x(2, 1), -inf);
    EXPECT_EQ(back.dataset.vx(3, 0), 0.0);  // "-0.0000"
    EXPECT_TRUE(std::signbit(back.dataset.vx(3, 0)));
    EXPECT_TRUE(std::isnan(back.dataset.vy(3, 0)));  // "-nan"
    EXPECT_TRUE(std::signbit(back.dataset.vy(3, 0)));
    EXPECT_EQ(back.dataset.x(3, 3), 0.333);
}

std::string one_record(const std::string& participant,
                       const std::string& x) {
    return std::string(kHeader) + participant + ",0," + x + ",0,0,0\n";
}

// Each field must give strtod's bits when strtod reads it whole, and the
// parse error otherwise.
TEST(TraceIo, NumbersReadAsStrtodDoes) {
    const double inf = std::numeric_limits<double>::infinity();
    const struct {
        const char* field;
        double value;        // compared unless `error` is set or NaN
        const char* error;   // expected in what()
    } cases[] = {
        {"3.5", 3.5, nullptr},
        {"-2e3", -2000.0, nullptr},
        {"1.", 1.0, nullptr},
        {".5", 0.5, nullptr},
        {"+1.5", 1.5, nullptr},
        {" 1.5", 1.5, nullptr},
        {"1.5 ", 0.0, "parse_double: invalid number: '1.5 '"},
        {"0x1p3", 8.0, nullptr},
        {"1e400", inf, nullptr},
        {"1e-400", 0.0, nullptr},
        {"1e-310", 1e-310, nullptr},
        {"nan", std::numeric_limits<double>::quiet_NaN(), nullptr},
        {"nan(123)", std::numeric_limits<double>::quiet_NaN(), nullptr},
        {"-inf", -inf, nullptr},
        {"infinity", inf, nullptr},
        {"abc", 0.0, "parse_double: invalid number: 'abc'"},
        {"1e", 0.0, "parse_double: invalid number: '1e'"},
        {"", 0.0, "parse_double: empty string"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(std::string("x field '") + c.field + "'");
        std::istringstream in(one_record("0", c.field));
        double expected = 0.0;
        if (c.error != nullptr) {
            ASSERT_FALSE(strtod_whole(c.field, expected));
            try {
                read_trace_csv(in, 1, 1, 30.0);
                ADD_FAILURE() << "accepted";
            } catch (const Error& e) {
                EXPECT_NE(std::string(e.what()).find(c.error),
                          std::string::npos)
                    << e.what();
            }
            continue;
        }
        ASSERT_TRUE(strtod_whole(c.field, expected));
        const ImportedTrace got = read_trace_csv(in, 1, 1, 30.0);
        EXPECT_EQ(bits(got.dataset.x(0, 0)), bits(expected));
        if (!std::isnan(c.value)) {
            EXPECT_EQ(bits(got.dataset.x(0, 0)), bits(c.value));
        }
    }
}

TEST(TraceIo, IndicesReadAsStrtolDoes) {
    const struct {
        const char* field;
        std::size_t row;    // compared unless `error` is set
        const char* error;  // expected in what()
    } cases[] = {
        {"3", 3, nullptr},
        {"+3", 3, nullptr},
        {" 3", 3, nullptr},
        {"-0", 0, nullptr},
        {"007", 7, nullptr},
        {"3.0", 0, "parse_long: invalid integer: '3.0'"},
        {"3 ", 0, "parse_long: invalid integer: '3 '"},
        // strtol clamps to LONG_MAX and consumes every digit.
        {"99999999999999999999", 0,
         "read_trace_csv: participant index out of range"},
        {"-1", 0, "read_trace_csv: participant index out of range"},
        {"", 0, "parse_long: empty string"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(std::string("participant field '") + c.field + "'");
        std::istringstream in(one_record(c.field, "1.5"));
        if (c.error != nullptr) {
            try {
                read_trace_csv(in, 8, 1, 30.0);
                ADD_FAILURE() << "accepted";
            } catch (const Error& e) {
                EXPECT_NE(std::string(e.what()).find(c.error),
                          std::string::npos)
                    << e.what();
            }
            continue;
        }
        const ImportedTrace got = read_trace_csv(in, 8, 1, 30.0);
        EXPECT_EQ(count_equal(got.existence, 1.0), 1u);
        EXPECT_EQ(got.existence(c.row, 0), 1.0);
        EXPECT_EQ(got.dataset.x(c.row, 0), 1.5);
    }
}

// The same two cells in every record grammar the reader accepts.
TEST(TraceIo, RecordGrammarsReadTheSameCells) {
    const std::string header = "participant,slot,x_m,y_m,vx_mps,vy_mps,note";
    const std::string a = "0,1,1.5,-2.25,0.5,-0.125";
    const std::string b = "1,0,3,4,5,6";
    const struct {
        const char* name;
        std::string text;
    } cases[] = {
        {"plain", header + "\n" + a + ",x\n" + b + ",y\n"},
        {"quoted fields",
         "\"participant\",slot,\"x_m\",y_m,vx_mps,\"vy_mps\",note\n"
         "\"0\",1,\"1.5\",-2.25,0.5,\"-0.125\",\"x\"\n" + b + ",\"y\"\n"},
        {"escaped quote", header + "\n" + a + ",\"say \"\"hi\"\"\"\n" + b +
                              ",\"\"\"\"\n"},
        {"quoted newline",
         header + "\n" + a + ",\"two\nlines\"\n" + b + ",\"\r\n\"\n"},
        {"crlf", header + "\r\n" + a + ",x\r\n" + b + ",y\r\n"},
        {"lone cr", header + "\r" + a + ",x\r" + b + ",y\r"},
        {"blank lines before the header",
         "\n\r\n\n" + header + "\n\n" + a + ",x\n\n" + b + ",y\n\n"},
        {"no final newline", header + "\n" + a + ",x\n" + b + ",y"},
        {"empty note", header + "\n" + a + ",\n" + b + ","},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.name);
        std::istringstream in(c.text);
        const ImportedTrace got = read_trace_csv(in, 2, 2, 30.0);
        EXPECT_EQ(count_equal(got.existence, 1.0), 2u);
        EXPECT_EQ(got.existence(0, 1), 1.0);
        EXPECT_EQ(got.existence(1, 0), 1.0);
        EXPECT_EQ(got.dataset.x(0, 1), 1.5);
        EXPECT_EQ(got.dataset.y(0, 1), -2.25);
        EXPECT_EQ(got.dataset.vx(0, 1), 0.5);
        EXPECT_EQ(got.dataset.vy(0, 1), -0.125);
        EXPECT_EQ(got.dataset.x(1, 0), 3.0);
        EXPECT_EQ(got.dataset.vy(1, 0), 6.0);
    }
    // A doubled quote inside a number is part of the number.
    std::istringstream in(header + "\n0,1,\"1\"\"5\",0,0,0,x\n");
    EXPECT_THROW(read_trace_csv(in, 2, 2, 30.0), Error);
}

// Every byte of the second record lands on the reader's block boundary
// once; its cells keep strtod's bits.
TEST(TraceIo, RecordsStraddlingTheBlockBoundary) {
    const std::string second = "1,1,-12.345,67.891,0.1234,-0.5678,\r\n";
    const std::string header =
        "participant,slot,x_m,y_m,vx_mps,vy_mps,pad\n";
    const std::string first = "0,0,1,2,3,4,";
    const std::size_t lead = header.size() + first.size() + 1;
    for (std::size_t k = 0; k <= second.size(); ++k) {
        const std::size_t pad = CsvReader::kBlockBytes - lead - k;
        std::istringstream in(header + first + std::string(pad, 'p') +
                              "\n" + second + "1,0,5,6,7,8,");
        const ImportedTrace got = read_trace_csv(in, 2, 2, 30.0);
        ASSERT_EQ(count_equal(got.existence, 1.0), 3u) << "offset " << k;
        EXPECT_EQ(bits(got.dataset.x(1, 1)), bits(-12.345));
        EXPECT_EQ(bits(got.dataset.y(1, 1)), bits(67.891));
        EXPECT_EQ(bits(got.dataset.vx(1, 1)), bits(0.1234));
        EXPECT_EQ(bits(got.dataset.vy(1, 1)), bits(-0.5678));
        EXPECT_EQ(got.dataset.vy(1, 0), 8.0);
    }
}

// A trace wider than a block reads back the values the writer printed.
TEST(TraceIo, MultiBlockRoundTripKeepsThePrintedValues) {
    const TraceDataset ds = make_small_dataset(5, 60, 80);
    std::ostringstream out;
    write_trace_csv(out, ds);
    ASSERT_GT(out.str().size(), 2 * CsvReader::kBlockBytes);
    std::istringstream in(out.str());
    const ImportedTrace got = read_trace_csv(in, 60, 80, ds.tau_s);
    for (std::size_t i = 0; i < 60; ++i) {
        for (std::size_t j = 0; j < 80; ++j) {
            double x = 0.0;
            double vy = 0.0;
            ASSERT_TRUE(strtod_whole(format_fixed(ds.x(i, j), 3), x));
            ASSERT_TRUE(strtod_whole(format_fixed(ds.vy(i, j), 4), vy));
            ASSERT_EQ(bits(got.dataset.x(i, j)), bits(x)) << i << "," << j;
            ASSERT_EQ(bits(got.dataset.vy(i, j)), bits(vy)) << i << "," << j;
        }
    }
}

// ---- seeded mutation gate --------------------------------------------------
//
// Every mutant of a small trace CSV either decodes into well-formed
// matrices or is refused with mcs::Error; any other exception, crash or
// sanitizer report fails. The mutants are fixed by the seed and the budget.

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        end = end == std::string::npos ? text.size() : end + 1;
        lines.push_back(text.substr(begin, end - begin));
        begin = end;
    }
    return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) {
        text += line;
    }
    return text;
}

std::size_t pick(Rng& rng, std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

// One field (any byte run between delimiters) replaced by a run longer
// than the reader's block: digits, junk, or a quoted run with delimiters.
std::string lengthen_field(const std::string& text, Rng& rng) {
    const std::size_t at = pick(rng, text.size());
    std::size_t begin = text.find_last_of(",\n", at);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::size_t end = text.find_first_of(",\r\n", at);
    end = end == std::string::npos ? text.size() : end;
    const std::size_t length =
        CsvReader::kBlockBytes + 1 + pick(rng, CsvReader::kBlockBytes);
    std::string field;
    switch (pick(rng, 3)) {
        case 0:
            field = "1" + std::string(length, '0') + ".5";
            break;
        case 1:
            field = std::string(length, 'z');
            break;
        default:
            field = "\"" + std::string(length, ',') + "\n\"";
            break;
    }
    return text.substr(0, begin) + field + text.substr(end);
}

std::string mutate(const std::string& text, Rng& rng) {
    std::string out = text;
    const std::size_t rounds = 1 + pick(rng, 3);
    for (std::size_t round = 0; round < rounds && !out.empty(); ++round) {
        std::vector<std::string> lines = split_lines(out);
        switch (pick(rng, 7)) {
            case 0: {  // bit flips
                const std::size_t flips = 1 + pick(rng, 4);
                for (std::size_t f = 0; f < flips; ++f) {
                    out[pick(rng, out.size())] ^=
                        static_cast<char>(1u << pick(rng, 8));
                }
                break;
            }
            case 1:  // truncation
                out.resize(pick(rng, out.size()));
                break;
            case 2: {  // duplicated line
                const std::size_t from = pick(rng, lines.size());
                lines.insert(lines.begin() + pick(rng, lines.size() + 1),
                             lines[from]);
                out = join_lines(lines);
                break;
            }
            case 3:  // deleted line
                lines.erase(lines.begin() + pick(rng, lines.size()));
                out = join_lines(lines);
                break;
            case 4:  // reordered lines
                std::swap(lines[pick(rng, lines.size())],
                          lines[pick(rng, lines.size())]);
                out = join_lines(lines);
                break;
            case 5:  // stray quote
                out.insert(pick(rng, out.size() + 1), 1, '"');
                break;
            default:  // stray carriage return
                out.insert(pick(rng, out.size() + 1), 1, '\r');
                break;
        }
    }
    return out;
}

struct Tally {
    std::size_t decoded = 0;
    std::size_t refused = 0;
};

void decode_or_refuse(const std::string& text, std::size_t n, std::size_t t,
                      Tally& tally) {
    std::istringstream in(text);
    try {
        const ImportedTrace got = read_trace_csv(in, n, t, 30.0);
        ASSERT_EQ(got.dataset.x.rows(), n);
        ASSERT_EQ(got.dataset.vy.cols(), t);
        ASSERT_EQ(count_equal(got.existence, 1.0) +
                      count_equal(got.existence, 0.0),
                  n * t);
        ++tally.decoded;
    } catch (const Error&) {
        ++tally.refused;
    }
}

TEST(TraceCsvMutation, EveryMutantDecodesOrThrowsError) {
    constexpr std::size_t kN = 6;
    constexpr std::size_t kT = 12;
    constexpr std::size_t kMutantsPerInput = 3000;
    constexpr std::size_t kLongFieldsPerInput = 6;
    const TraceDataset ds = make_small_dataset(17, kN, kT);
    Rng mask_rng(23);
    std::ostringstream written;
    write_trace_csv(written, ds, make_existence_mask(kN, kT, 0.2, mask_rng));
    const std::string lf = written.str();
    std::string crlf;
    for (const char c : lf) {
        crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    }
    const std::string quoted = "\"participant\"" + lf.substr(11);
    Rng rng(20180702);
    for (const std::string& base : {lf, crlf, quoted}) {
        Tally tally;
        decode_or_refuse(base, kN, kT, tally);
        ASSERT_EQ(tally.decoded, 1u) << "the unmutated input must decode";
        for (std::size_t k = 0; k < kMutantsPerInput; ++k) {
            decode_or_refuse(mutate(base, rng), kN, kT, tally);
            ASSERT_FALSE(HasFatalFailure()) << "mutant " << k;
        }
        for (std::size_t k = 0; k < kLongFieldsPerInput; ++k) {
            decode_or_refuse(lengthen_field(base, rng), kN, kT, tally);
        }
        // Both outcomes occur, so the gate exercises both paths.
        EXPECT_GT(tally.decoded, kMutantsPerInput / 20);
        EXPECT_GT(tally.refused, kMutantsPerInput / 20);
    }
}

}  // namespace
}  // namespace mcs
