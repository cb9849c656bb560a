// Table 2 reproduction: the option × class crosscut matrix, computed from
// the N-Server template's actual directives ('o' = option controls whether
// the unit exists, '+' = generated code for the unit depends on the value).
//
// The paper uses this matrix to argue that a static framework supporting
// all options is infeasible — the options crosscut too many classes — which
// motivates generating a custom framework after option selection.
#include <cstdio>

#include "bench_common.hpp"
#include "gdp/pattern_template.hpp"

int main() {
  using namespace cops;
  bench::print_header(
      "TABLE 2 — options crosscut the generated code",
      "Computed from the live template directives (not hand-maintained).");

  const auto tmpl = gdp::make_nserver_template();
  auto table = tmpl.format_crosscut_table();
  if (!table.is_ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().to_string().c_str());
    return 1;
  }
  std::fputs(table.value().c_str(), stdout);

  // The quantitative claim behind the table: most options affect several
  // units, so option combinations explode multiplicatively.
  auto matrix = tmpl.crosscut();
  if (!matrix.is_ok()) return 1;
  int crosscutting_options = 0;
  for (const auto& spec : tmpl.options().specs()) {
    int touched = 0;
    for (const auto& [unit, row] : matrix.value()) {
      auto it = row.find(spec.key);
      if (it != row.end() && (it->second.existence || it->second.body)) {
        ++touched;
      }
    }
    if (touched >= 2) ++crosscutting_options;
    std::printf("  %-22s affects %d generated unit(s)\n", spec.key.c_str(),
                touched);
  }
  std::printf(
      "\n%d of %zu options crosscut >= 2 units — the paper's argument for "
      "generating (not dynamically configuring) the framework.\n",
      crosscutting_options, tmpl.options().specs().size());
  return 0;
}
