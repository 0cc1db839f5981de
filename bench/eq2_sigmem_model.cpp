// Eq. 2 reproduction: the signature-memory size model vs the actual
// allocations of the implementation.
//
// Paper (Section V.A.2): SigMem(n,t) = n(4 + -t ln(FPRate) / (8 ln^2 2));
// with n = 10^7, t = 32, FPRate = 0.001 "around 580MB could be sufficient to
// perform the analysis for any program with moderate input sizes".
//
// The bench sweeps (n, t, FPRate), prints the model, and for tractable n
// instantiates the real signatures to confirm the model's per-slot costs
// match the code.
#include "bench_common.hpp"

#include <array>

#include "sigmem/read_signature.hpp"
#include "sigmem/size_model.hpp"
#include "sigmem/write_signature.hpp"

namespace cs = commscope::support;
namespace sg = commscope::sigmem;

int main() {
  std::cout << "=== Eq. 2: SigMem(n, t) = n(4 + -t*ln(p)/(8*ln^2 2)) ===\n\n";

  cs::Table model_table({"slots n", "threads t", "FPRate p", "write bytes",
                         "read bytes", "total", "note"});
  struct Point {
    std::size_t n;
    int t;
    double p;
    const char* note;
  };
  const std::array<Point, 7> points{{{1'000'000, 32, 0.001, ""},
                                     {4'000'000, 32, 0.001, ""},
                                     {10'000'000, 32, 0.001,
                                      "paper's ~580MB reference"},
                                     {100'000'000, 32, 0.001, ""},
                                     {10'000'000, 8, 0.001, "fewer threads"},
                                     {10'000'000, 64, 0.001, "more threads"},
                                     {10'000'000, 32, 0.01, "looser FPR"}}};
  for (const Point& pt : points) {
    const sg::SigMemModel m = sg::sigmem_model(pt.n, pt.t, pt.p);
    model_table.add_row(
        {std::to_string(pt.n), std::to_string(pt.t), cs::Table::num(pt.p, 4),
         cs::Table::bytes(static_cast<std::uint64_t>(m.write_bytes)),
         cs::Table::bytes(static_cast<std::uint64_t>(m.read_bytes)),
         cs::Table::bytes(static_cast<std::uint64_t>(m.total())), pt.note});
  }
  model_table.print(std::cout);

  // Validate the model against actual allocations at a tractable n. The
  // signatures hold all n bloom filters from construction, so no slot needs
  // touching first.
  std::cout << "\nModel vs implementation:\n";
  cs::Table impl_table({"slots n", "threads t", "model total", "actual bytes",
                        "actual/model"});
  for (const std::size_t n : {std::size_t{4096}, std::size_t{65536}}) {
    const int t = 32;
    const double p = 0.001;
    const sg::WriteSignature ws(n);
    const sg::ReadSignature rs(n, t, p);
    const double model = sg::sigmem_model(n, t, p).total();
    const double actual =
        static_cast<double>(ws.byte_size() + rs.byte_size());
    impl_table.add_row({std::to_string(n), std::to_string(t),
                        cs::Table::bytes(static_cast<std::uint64_t>(model)),
                        cs::Table::bytes(static_cast<std::uint64_t>(actual)),
                        cs::Table::num(actual / model, 2)});
  }
  impl_table.print(std::cout);
  std::cout << "\nThe ratio is only the rounding of each bloom filter's m up "
               "to whole 64-bit words; model and implementation scale "
               "identically in n, t and ln(1/p).\n";
  return 0;
}
