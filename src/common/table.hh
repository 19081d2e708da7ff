/**
 * @file
 * Plain-text table renderer used by `arl_sim figure` to print
 * paper-style tables (Table 1/2/3, Figures 2/4/5/8 as rows).
 */

#ifndef ARL_COMMON_TABLE_HH
#define ARL_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace arl
{

/**
 * Collects rows of string cells and renders them with aligned
 * columns.  The first row added via header() is separated from the
 * body by a rule.
 */
class TablePrinter
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a body row. */
    void row(std::vector<std::string> cells);

    /** Render the table with padded, left-aligned columns. */
    std::string render() const;

    /** Helper: format a double with @p precision decimals. */
    static std::string num(double value, int precision = 2);

    /** Helper: format "mean (sd)" in the paper's Table-2 style. */
    static std::string meanSd(double mean, double sd, int precision = 2);

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> body;
};

} // namespace arl

#endif // ARL_COMMON_TABLE_HH
