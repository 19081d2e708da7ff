#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace arl
{

void
TablePrinter::header(std::vector<std::string> cells)
{
    head = std::move(cells);
}

void
TablePrinter::row(std::vector<std::string> cells)
{
    body.push_back(std::move(cells));
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &cells) {
        if (widths.size() < cells.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(head);
    for (const auto &r : body)
        grow(r);

    auto emit = [&widths](std::ostringstream &os,
                          const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < cells.size() ? cells[i] : "";
            os << cell;
            if (i + 1 < widths.size())
                os << std::string(widths[i] - cell.size() + 2, ' ');
        }
        os << "\n";
    };

    std::ostringstream os;
    if (!head.empty()) {
        emit(os, head);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    }
    for (const auto &r : body)
        emit(os, r);
    return os.str();
}

std::string
TablePrinter::num(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
TablePrinter::meanSd(double mean, double sd, int precision)
{
    return num(mean, precision) + " (" + num(sd, precision) + ")";
}

} // namespace arl
