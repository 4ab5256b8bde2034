// Figure 14: (a) inline-assembly add_mod/mul_mod optimization of the
// radix-8 SLM NTT; (b) explicit dual-tile submission, both on Device1.
// Reports speedup over the same-point naive baseline and efficiency vs the
// single-tile int64 peak (the paper's accounting; see README, "Benchmarks
// -> paper figures").
#include "bench_common.h"

int main() {
    using namespace bench;
    const auto spec = xehe::xgpu::device1();
    struct Point {
        std::size_t n, inst;
    };
    const Point points[] = {{8192, 64},  {8192, 128},  {8192, 256},
                            {16384, 64}, {16384, 128}, {16384, 256},
                            {32768, 64}, {32768, 128}, {32768, 256},
                            {32768, 512}, {32768, 1024}};
    std::vector<std::string> cols;
    for (const auto &p : points) {
        cols.push_back(std::to_string(p.n / 1024) + "K," +
                       std::to_string(p.inst));
    }

    print_header(
        "Fig. 14(a): radix-8 SLM NTT with inline assembly (Device1, 1 tile)",
        "Figure 14a");
    print_cols("metric \\ (N, inst)", cols);
    std::vector<double> wo_eff, w_eff, gain;
    for (const auto &p : points) {
        const auto wo = run_ntt(spec, NttVariant::LocalRadix8,
                                IsaMode::Compiler, 1, p.n, p.inst);
        const auto w = run_ntt(spec, NttVariant::LocalRadix8,
                               IsaMode::InlineAsm, 1, p.n, p.inst);
        wo_eff.push_back(100.0 * wo.efficiency);
        w_eff.push_back(100.0 * w.efficiency);
        gain.push_back(100.0 * (wo.time_ns / w.time_ns - 1.0));
    }
    print_row("efficiency w/o asm (%)", wo_eff, "%9.2f%%");
    print_row("efficiency w/ asm (%)", w_eff, "%9.2f%%");
    print_row("NTT improvement (%)", gain, "%9.2f%%");

    print_header("Fig. 14(b): explicit dual-tile submission (Device1)",
                 "Figure 14b");
    print_cols("metric \\ (N, inst)", cols);
    std::vector<double> sp1, sp2, eff2;
    for (const auto &p : points) {
        const double naive = run_ntt(spec, NttVariant::NaiveRadix2,
                                     IsaMode::Compiler, 1, p.n, p.inst)
                                 .time_ns;
        const auto one = run_ntt(spec, NttVariant::LocalRadix8,
                                 IsaMode::InlineAsm, 1, p.n, p.inst);
        const auto two = run_ntt(spec, NttVariant::LocalRadix8,
                                 IsaMode::InlineAsm, 2, p.n, p.inst);
        sp1.push_back(naive / one.time_ns);
        sp2.push_back(naive / two.time_ns);
        eff2.push_back(100.0 * two.efficiency);
    }
    print_row("opt 1-tile speedup", sp1, "%10.2fx");
    print_row("opt 2-tile speedup", sp2, "%10.2fx");
    print_row("2-tile efficiency (%)", eff2, "%9.2f%%");

    std::printf(
        "\nPaper reference points: asm improves NTT by 35.8-40.7%%, raising\n"
        "radix-8 efficiency to 47.1%%; dual-tile reaches 79.8%% of peak and\n"
        "9.93x over naive at 32K/1024.\n");
    return 0;
}
