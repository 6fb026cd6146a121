#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/file.h"
#include "common/logging.h"

namespace rumba {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    RUMBA_CHECK(!headers_.empty());
}

void
Table::AddRow(std::vector<std::string> cells)
{
    RUMBA_CHECK(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::Num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::Int(long v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%ld", v);
    return buf;
}

std::string
Table::ToText() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size())
                out << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out << "\n";
    };
    emit_row(headers_);
    size_t total = headers_.size() * 2 - 2;
    for (size_t w : widths)
        total += w;
    out << std::string(total, '-') << "\n";
    for (const auto& row : rows_)
        emit_row(row);
    return out.str();
}

std::string
Table::ToCsv() const
{
    auto quote = [](const std::string& cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string q = "\"";
        for (char ch : cell) {
            if (ch == '"')
                q += '"';
            q += ch;
        }
        q += '"';
        return q;
    };
    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            out << quote(row[c]);
            if (c + 1 < row.size())
                out << ",";
        }
        out << "\n";
    };
    emit_row(headers_);
    for (const auto& row : rows_)
        emit_row(row);
    return out.str();
}

void
Table::Print(const std::string& title) const
{
    std::printf("\n== %s ==\n%s", title.c_str(), ToText().c_str());
    std::fflush(stdout);
}

bool
Table::WriteCsv(const std::string& path) const
{
    return WriteFile(path, ToCsv());
}

}  // namespace rumba
