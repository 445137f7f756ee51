// Unit tests for the CSV record reader.
#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace mcs {
namespace {

using Records = std::vector<std::vector<std::string>>;

Records read_all(const std::string& text) {
    std::istringstream in(text);
    CsvReader reader(in);
    Records records;
    while (reader.next()) {
        std::vector<std::string>& record = records.emplace_back();
        for (std::size_t k = 0; k < reader.size(); ++k) {
            record.emplace_back(reader.field(k));
        }
    }
    return records;
}

TEST(Csv, ReadsRecordsInOrder) {
    EXPECT_EQ(read_all("a,b,c\n1,2,3\n4,5,6\n"),
              (Records{{"a", "b", "c"}, {"1", "2", "3"}, {"4", "5", "6"}}));
}

TEST(Csv, EmptyInputHasNoRecords) {
    EXPECT_TRUE(read_all("").empty());
    EXPECT_TRUE(read_all("\n\r\n\r").empty());
}

TEST(Csv, HandlesQuotedFields) {
    EXPECT_EQ(read_all("name,note\nalice,\"hello, world\"\n"),
              (Records{{"name", "note"}, {"alice", "hello, world"}}));
}

TEST(Csv, HandlesEscapedQuotes) {
    EXPECT_EQ(read_all("v\n\"say \"\"hi\"\"\"\n"),
              (Records{{"v"}, {"say \"hi\""}}));
}

TEST(Csv, HandlesQuotedNewline) {
    EXPECT_EQ(read_all("v\n\"line1\nline2\"\n"),
              (Records{{"v"}, {"line1\nline2"}}));
    EXPECT_EQ(read_all("\"a\r\nb\",c\n"), (Records{{"a\r\nb", "c"}}));
}

TEST(Csv, QuotesMayOpenAndCloseMidField) {
    EXPECT_EQ(read_all("ab\"c,d\"e,f\n"), (Records{{"abc,de", "f"}}));
}

TEST(Csv, UnterminatedQuoteRunsToTheEnd) {
    EXPECT_EQ(read_all("a,\"b\nc"), (Records{{"a", "b\nc"}}));
}

TEST(Csv, HandlesCrLf) {
    EXPECT_EQ(read_all("a,b\r\n1,2\r\n"), (Records{{"a", "b"}, {"1", "2"}}));
}

TEST(Csv, LoneCrEndsARecord) {
    EXPECT_EQ(read_all("a,b\r1,2\r3,4"),
              (Records{{"a", "b"}, {"1", "2"}, {"3", "4"}}));
}

TEST(Csv, LastRecordNeedsNoNewline) {
    EXPECT_EQ(read_all("a\n1"), (Records{{"a"}, {"1"}}));
}

TEST(Csv, SkipsBlankLines) {
    EXPECT_EQ(read_all("\n\r\na\n1\n\n2\n\n"),
              (Records{{"a"}, {"1"}, {"2"}}));
    // A lone empty quoted field is a blank line too.
    EXPECT_EQ(read_all("a\n\"\"\n1\n"), (Records{{"a"}, {"1"}}));
}

TEST(Csv, PreservesEmptyFields) {
    EXPECT_EQ(read_all("a,b,c\n1,,3\n,\n"),
              (Records{{"a", "b", "c"}, {"1", "", "3"}, {"", ""}}));
}

// Every byte of a record with an escaped quote, a quoted delimiter and a
// CRLF lands on the block boundary once; the records read stay the same.
TEST(Csv, RecordsStraddleTheBlockBoundary) {
    const std::string tail = "a,\"x\"\"y,\"\"\",b\r\nc,\"\"\r\nd";
    const Records expected_tail = {{"a", "x\"y,\"", "b"}, {"c", ""}, {"d"}};
    for (std::size_t pad = CsvReader::kBlockBytes - tail.size() - 2;
         pad <= CsvReader::kBlockBytes; ++pad) {
        const std::string first(pad, 'p');
        Records expected = {{first}};
        expected.insert(expected.end(), expected_tail.begin(),
                        expected_tail.end());
        EXPECT_EQ(read_all(first + "\n" + tail), expected) << "pad " << pad;
    }
}

TEST(Csv, FieldsLongerThanABlock) {
    const std::string plain(CsvReader::kBlockBytes * 2 + 7, 'x');
    std::string quoted(CsvReader::kBlockBytes + 3, 'q');
    quoted[CsvReader::kBlockBytes - 1] = ',';
    quoted[CsvReader::kBlockBytes] = '\n';
    EXPECT_EQ(read_all("h\n" + plain + ",\"" + quoted + "\"\n1\n"),
              (Records{{"h"}, {plain, quoted}, {"1"}}));
}

TEST(Csv, FieldViewsFollowTheCurrentRecord) {
    std::istringstream in("a,bb\nccc\n");
    CsvReader reader(in);
    ASSERT_TRUE(reader.next());
    ASSERT_EQ(reader.size(), 2u);
    EXPECT_EQ(reader.field(0), "a");
    EXPECT_EQ(reader.field(1), "bb");
    ASSERT_TRUE(reader.next());
    ASSERT_EQ(reader.size(), 1u);
    EXPECT_EQ(reader.field(0), "ccc");
    EXPECT_FALSE(reader.next());
    EXPECT_FALSE(reader.next());
}

}  // namespace
}  // namespace mcs
