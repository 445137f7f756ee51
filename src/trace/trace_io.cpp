#include "trace/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/format.hpp"

namespace mcs {

namespace {

constexpr char kHeader[] = "participant,slot,x_m,y_m,vx_mps,vy_mps\n";

// Records are formatted into a buffer of this many bytes, plus room for one
// more record, and handed to the stream a block at a time.
constexpr std::size_t kWriteBlockBytes = std::size_t{64} << 10;
// Two 20-digit indices, two positions and two velocities, five commas and
// the newline.
constexpr std::size_t kMaxRecordBytes =
    2 * 20 + 2 * max_fixed_chars(3) + 2 * max_fixed_chars(4) + 6;

}  // namespace

void write_trace_csv(std::ostream& out, const TraceDataset& dataset,
                     const Matrix& mask) {
    dataset.validate();
    MCS_CHECK_MSG(mask.rows() == dataset.participants() &&
                      mask.cols() == dataset.slots(),
                  "write_trace_csv: mask shape mismatch");
    std::vector<char> block(kWriteBlockBytes + kMaxRecordBytes);
    char* const full = block.data() + kWriteBlockBytes;
    char* p = std::copy_n(kHeader, sizeof kHeader - 1, block.data());
    for (std::size_t i = 0; i < dataset.participants(); ++i) {
        for (std::size_t j = 0; j < dataset.slots(); ++j) {
            if (mask(i, j) == 0.0) {
                continue;
            }
            p = std::to_chars(p, p + 20, i).ptr;
            *p++ = ',';
            p = std::to_chars(p, p + 20, j).ptr;
            *p++ = ',';
            p = put_fixed(p, dataset.x(i, j), 3);
            *p++ = ',';
            p = put_fixed(p, dataset.y(i, j), 3);
            *p++ = ',';
            p = put_fixed(p, dataset.vx(i, j), 4);
            *p++ = ',';
            p = put_fixed(p, dataset.vy(i, j), 4);
            *p++ = '\n';
            if (p >= full) {
                out.write(block.data(), p - block.data());
                p = block.data();
            }
        }
    }
    out.write(block.data(), p - block.data());
}

void write_trace_csv(std::ostream& out, const TraceDataset& dataset) {
    const Matrix all_ones =
        Matrix::constant(dataset.participants(), dataset.slots(), 1.0);
    write_trace_csv(out, dataset, all_ones);
}

void write_trace_csv_file(const std::string& path, const TraceDataset& dataset,
                          const Matrix& mask) {
    std::ofstream out(path);
    MCS_CHECK_MSG(out.good(), "cannot open trace CSV for writing: " + path);
    write_trace_csv(out, dataset, mask);
    MCS_CHECK_MSG(out.good(), "error while writing trace CSV: " + path);
}

ImportedTrace read_trace_csv(std::istream& in, std::size_t participants,
                             std::size_t slots, double tau_s) {
    MCS_CHECK_MSG(participants > 0 && slots > 0,
                  "read_trace_csv: empty shape");
    CsvReader reader(in);
    // The first non-blank record is the header.
    std::vector<std::string> header;
    if (reader.next()) {
        for (std::size_t k = 0; k < reader.size(); ++k) {
            header.emplace_back(reader.field(k));
        }
    }
    const auto column = [&header](const std::string& name) {
        const auto it = std::find(header.begin(), header.end(), name);
        if (it == header.end()) {
            throw Error("CSV column not found: " + name);
        }
        return static_cast<std::size_t>(it - header.begin());
    };
    const std::size_t col_participant = column("participant");
    const std::size_t col_slot = column("slot");
    const std::size_t col_x = column("x_m");
    const std::size_t col_y = column("y_m");
    const std::size_t col_vx = column("vx_mps");
    const std::size_t col_vy = column("vy_mps");
    // A record needs six fields and every named column.
    const std::size_t min_fields =
        1 + std::max({std::size_t{5}, col_participant, col_slot, col_x, col_y,
                      col_vx, col_vy});

    ImportedTrace out;
    out.dataset.x = Matrix(participants, slots);
    out.dataset.y = Matrix(participants, slots);
    out.dataset.vx = Matrix(participants, slots);
    out.dataset.vy = Matrix(participants, slots);
    out.dataset.tau_s = tau_s;
    out.existence = Matrix(participants, slots);

    while (reader.next()) {
        MCS_CHECK_MSG(reader.size() >= min_fields,
                      "read_trace_csv: short record");
        const long i = parse_long(reader.field(col_participant));
        const long j = parse_long(reader.field(col_slot));
        MCS_CHECK_MSG(i >= 0 && static_cast<std::size_t>(i) < participants,
                      "read_trace_csv: participant index out of range");
        MCS_CHECK_MSG(j >= 0 && static_cast<std::size_t>(j) < slots,
                      "read_trace_csv: slot index out of range");
        const auto ui = static_cast<std::size_t>(i);
        const auto uj = static_cast<std::size_t>(j);
        MCS_CHECK_MSG(out.existence(ui, uj) == 0.0,
                      "read_trace_csv: duplicate cell (" +
                          std::string(reader.field(0)) + "," +
                          std::string(reader.field(1)) + ")");
        out.existence(ui, uj) = 1.0;
        out.dataset.x(ui, uj) = parse_double(reader.field(col_x));
        out.dataset.y(ui, uj) = parse_double(reader.field(col_y));
        out.dataset.vx(ui, uj) = parse_double(reader.field(col_vx));
        out.dataset.vy(ui, uj) = parse_double(reader.field(col_vy));
    }
    out.dataset.validate();
    return out;
}

ImportedTrace read_trace_csv_file(const std::string& path,
                                  std::size_t participants, std::size_t slots,
                                  double tau_s) {
    std::ifstream in(path);
    MCS_CHECK_MSG(in.good(), "cannot open trace CSV for reading: " + path);
    return read_trace_csv(in, participants, slots, tau_s);
}

}  // namespace mcs
