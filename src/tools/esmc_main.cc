// esmc — the Efeu compiler as a command-line tool. Compiles ESI/ESM
// specification files and emits the chosen backend's output, mirroring how
// the paper's artifact invokes ESMC through its build system.
//
// Usage:
//   esmc --esi spec.esi --esm layers.esm [--esm more.esm ...]
//        [-D NAME[=VALUE] ...] [--verifier]
//        [--lint | --lint=Werror] [--dump-analysis]
//        [--emit promela|c|verilog|mmio|monitor|ir] [--entry LAYER]
//        [--iface UPPER:LOWER] [-o DIR]
//
// With the built-in I2C specifications:
//   esmc --builtin-i2c controller --emit verilog
//   esmc --builtin-i2c responder --emit promela
//
// Exit codes: 0 success, 1 file read error, 2 usage or parse/sema error,
// 3 lint findings at error severity (--lint=Werror escalates warnings).
// Regression-tested across all --emit modes by tests/test_fuzz.cc.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analysis.h"
#include "src/codegen/c/c_backend.h"
#include "src/codegen/c/shadow_checker_c.h"
#include "src/codegen/mmio/mmio_backend.h"
#include "src/codegen/promela/promela_backend.h"
#include "src/codegen/verilog/verilog_backend.h"
#include "src/i2c/stack.h"
#include "src/ir/compile.h"
#include "src/ir/dump.h"

namespace {

struct Options {
  std::string esi_path;
  std::vector<std::string> esm_paths;
  std::map<std::string, std::string> defines;
  bool verifier = false;
  std::string emit;
  std::string entry;
  std::string iface;  // UPPER:LOWER for --emit mmio
  std::string out_dir;
  std::string builtin;  // "controller" or "responder"
  bool lint = false;
  bool lint_werror = false;
  bool dump_analysis = false;
  bool sym = false;
  bool sym_werror = false;
  bool dump_sym = false;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void EmitFile(const Options& options, const std::string& name, const std::string& content) {
  if (options.out_dir.empty()) {
    std::printf("// ===== %s =====\n%s\n", name.c_str(), content.c_str());
    return;
  }
  std::filesystem::create_directories(options.out_dir);
  std::ofstream out(options.out_dir + "/" + name);
  out << content;
  std::fprintf(stderr, "wrote %s/%s\n", options.out_dir.c_str(), name.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: esmc (--esi FILE --esm FILE... | --builtin-i2c controller|responder)\n"
               "            [-D NAME[=VALUE]] [--verifier]\n"
               "            [--lint | --lint=Werror] [--dump-analysis]\n"
               "            [--sym | --sym=Werror] [--dump-sym]\n"
               "            [--emit promela|c|verilog|mmio|monitor|ir]\n"
               "            [--entry LAYER] [--iface UPPER:LOWER] [-o DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--esi") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.esi_path = value;
    } else if (arg == "--esm") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.esm_paths.push_back(value);
    } else if (arg == "-D") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      std::string define = value;
      size_t eq = define.find('=');
      if (eq == std::string::npos) {
        options.defines[define] = "1";
      } else {
        options.defines[define.substr(0, eq)] = define.substr(eq + 1);
      }
    } else if (arg == "--verifier") {
      options.verifier = true;
    } else if (arg == "--emit") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.emit = value;
    } else if (arg == "--entry") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.entry = value;
    } else if (arg == "--iface") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.iface = value;
    } else if (arg == "-o") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.out_dir = value;
    } else if (arg == "--lint") {
      options.lint = true;
    } else if (arg == "--lint=Werror") {
      options.lint = true;
      options.lint_werror = true;
    } else if (arg == "--dump-analysis") {
      options.dump_analysis = true;
    } else if (arg == "--sym") {
      options.sym = true;
    } else if (arg == "--sym=Werror") {
      options.sym = true;
      options.sym_werror = true;
    } else if (arg == "--dump-sym") {
      options.dump_sym = true;
    } else if (arg == "--builtin-i2c") {
      const char* value = next();
      if (value == nullptr) {
        return Usage();
      }
      options.builtin = value;
    } else {
      std::fprintf(stderr, "esmc: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (options.emit.empty() && !options.lint && !options.dump_analysis && !options.sym &&
      !options.dump_sym) {
    return Usage();
  }

  // ---- Compile -------------------------------------------------------------
  efeu::DiagnosticEngine diag;
  std::unique_ptr<efeu::ir::Compilation> compilation;
  if (!options.builtin.empty()) {
    if (options.builtin == "controller") {
      efeu::i2c::ControllerStackOptions stack_options;
      stack_options.no_clock_stretching = options.defines.count("NO_CLOCK_STRETCHING") > 0;
      stack_options.ks0127_compat = options.defines.count("KS0127_COMPAT") > 0;
      compilation = efeu::i2c::CompileControllerStack(diag, stack_options);
      if (options.entry.empty()) {
        options.entry = "CEepDriver";
      }
    } else if (options.builtin == "responder") {
      efeu::i2c::ResponderStackOptions stack_options;
      stack_options.ks0127 = options.defines.count("KS0127") > 0;
      compilation = efeu::i2c::CompileResponderStack(diag, stack_options);
      if (options.entry.empty()) {
        options.entry = "RSymbol";
      }
    } else {
      std::fprintf(stderr, "esmc: --builtin-i2c expects 'controller' or 'responder'\n");
      return 2;
    }
  } else {
    if (options.esi_path.empty() || options.esm_paths.empty()) {
      return Usage();
    }
    std::string esi;
    if (!ReadFile(options.esi_path, &esi)) {
      std::fprintf(stderr, "esmc: cannot read %s\n", options.esi_path.c_str());
      return 1;
    }
    std::string esm;
    for (const std::string& path : options.esm_paths) {
      std::string text;
      if (!ReadFile(path, &text)) {
        std::fprintf(stderr, "esmc: cannot read %s\n", path.c_str());
        return 1;
      }
      esm += text;
      esm += "\n";
    }
    efeu::ir::CompileOptions compile_options;
    compile_options.allow_nondet = options.verifier;
    compile_options.defines = options.defines;
    compilation = efeu::ir::Compile(esi, esm, diag, compile_options);
  }
  if (compilation == nullptr) {
    std::fprintf(stderr, "%s\n", diag.RenderAll().c_str());
    // Same code as a usage error: the input (not the environment) is bad.
    // Build systems distinguish "fix the spec" (2/3) from "fix the
    // invocation or filesystem" (1) — see tests/test_fuzz.cc.
    return 2;
  }

  // ---- Lint / sym / analysis dump -------------------------------------
  efeu::analysis::AnalysisResult lint_result;
  if (options.lint) {
    efeu::analysis::AnalysisOptions analysis_options;
    analysis_options.werror = options.lint_werror;
    lint_result = efeu::analysis::AnalyzeCompilation(*compilation, diag, analysis_options);
  }
  efeu::analysis::AnalysisResult sym_result;
  efeu::analysis::sym::CompilationSummary sym_summary;
  if (options.sym || options.dump_sym ||
      (options.emit == "monitor" && options.sym)) {
    // External senders get the assumed ESI contract facts: the proofs are
    // per-module, conditioned on every peer honoring its channel contract.
    sym_summary = efeu::analysis::sym::AnalyzeCompilationSym(*compilation);
  }
  if (options.sym) {
    efeu::analysis::AnalysisOptions analysis_options;
    analysis_options.werror = options.sym_werror;
    sym_result =
        efeu::analysis::ReportSymFindings(*compilation, sym_summary, diag, analysis_options);
    // Unproved obligations are informational (a verdict, not a rule hit):
    // the explicit checker still covers them. Caret notes point at the site.
    for (const efeu::analysis::sym::ModuleSummary& m : sym_summary.modules) {
      for (const efeu::analysis::sym::SiteVerdict& site : m.sites) {
        if (site.proved || !site.loc.IsValid()) {
          continue;
        }
        const char* what = site.kind == efeu::analysis::sym::SiteVerdict::Kind::kAssert
                               ? "assert"
                               : site.kind == efeu::analysis::sym::SiteVerdict::Kind::kDivisor
                                     ? "divisor"
                                     : "index";
        diag.Note(compilation->esm_buffer(), site.loc,
                  std::string(what) + " not statically proved in " + m.layer +
                      (site.always_fails ? " (fails for every admitted value)" : "") +
                      "; value " + site.value);
      }
    }
  }
  for (const efeu::Diagnostic& diagnostic : diag.diagnostics()) {
    std::fprintf(stderr, "%s\n", diagnostic.Render().c_str());
  }
  if (options.lint) {
    std::fprintf(stderr, "esmc: lint: %d error(s), %d warning(s), %d suppressed\n",
                 lint_result.errors, lint_result.warnings, lint_result.suppressed);
  }
  if (options.sym) {
    int proved = 0;
    int total = 0;
    int assumed = 0;
    for (const efeu::analysis::sym::ModuleSummary& m : sym_summary.modules) {
      for (const efeu::analysis::sym::SiteVerdict& site : m.sites) {
        ++total;
        proved += site.proved ? 1 : 0;
        assumed += site.proved && site.assumed ? 1 : 0;
      }
    }
    std::fprintf(stderr,
                 "esmc: sym: %d/%d obligation(s) proved (%d on assumed contracts), "
                 "%llu path(s), %llu solver quer%s; %d error(s), %d warning(s), %d suppressed\n",
                 proved, total, assumed,
                 static_cast<unsigned long long>(sym_summary.TotalPaths()),
                 static_cast<unsigned long long>(sym_summary.TotalSolverQueries()),
                 sym_summary.TotalSolverQueries() == 1 ? "y" : "ies", sym_result.errors,
                 sym_result.warnings, sym_result.suppressed);
  }
  if (options.dump_analysis) {
    EmitFile(options, "analysis.txt", efeu::analysis::DumpAnalysis(*compilation));
  }
  if (options.dump_sym) {
    EmitFile(options, "sym.txt",
             efeu::analysis::sym::RenderSymSummary(*compilation, sym_summary));
  }
  if (!lint_result.ok() || !sym_result.ok()) {
    return 3;
  }
  if (options.emit.empty()) {
    return 0;
  }

  // ---- Emit -----------------------------------------------------------
  if (options.emit == "promela") {
    efeu::codegen::PromelaOutput output = efeu::codegen::GeneratePromela(*compilation);
    EmitFile(options, "model.pml", output.Combined());
  } else if (options.emit == "c") {
    if (options.entry.empty()) {
      std::fprintf(stderr, "esmc: --emit c requires --entry LAYER\n");
      return 2;
    }
    efeu::codegen::COutput output = efeu::codegen::GenerateC(*compilation, options.entry);
    EmitFile(options, "efeu_gen.h", output.header);
    for (const auto& [layer, text] : output.layers) {
      EmitFile(options, layer + ".c", text);
    }
  } else if (options.emit == "verilog") {
    if (options.verifier) {
      std::fprintf(stderr, "esmc: --emit verilog: verifier specifications are not hardware\n");
      return 2;
    }
    efeu::codegen::VerilogOutput output = efeu::codegen::GenerateVerilog(*compilation);
    for (const auto& [layer, text] : output.modules) {
      EmitFile(options, layer + ".v", text);
    }
  } else if (options.emit == "mmio") {
    size_t colon = options.iface.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "esmc: --emit mmio requires --iface UPPER:LOWER\n");
      return 2;
    }
    std::string upper = options.iface.substr(0, colon);
    std::string lower = options.iface.substr(colon + 1);
    const efeu::esi::ChannelInfo* down = compilation->system().FindChannel(upper, lower);
    const efeu::esi::ChannelInfo* up = compilation->system().FindChannel(lower, upper);
    if (down == nullptr && up == nullptr) {
      std::fprintf(stderr, "esmc: no interface between %s and %s\n", upper.c_str(),
                   lower.c_str());
      return 1;
    }
    efeu::codegen::MmioOutput output =
        efeu::codegen::GenerateMmio(upper + "_" + lower, down, up);
    EmitFile(options, upper + "_" + lower + "_driver.c", output.c_driver);
    EmitFile(options, upper + "_" + lower + "_axil.vhd", output.vhdl);
  } else if (options.emit == "monitor") {
    // Runtime assertion monitors for the boundary named by --iface: the
    // standalone C shadow checker (software half) plus the Verilog bus
    // watcher that ships with every generated stack (hardware half).
    size_t colon = options.iface.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "esmc: --emit monitor requires --iface UPPER:LOWER\n");
      return 2;
    }
    std::string upper = options.iface.substr(0, colon);
    std::string lower = options.iface.substr(colon + 1);
    const efeu::esi::ChannelInfo* down = compilation->system().FindChannel(upper, lower);
    const efeu::esi::ChannelInfo* up = compilation->system().FindChannel(lower, upper);
    if (down == nullptr && up == nullptr) {
      std::fprintf(stderr, "esmc: no interface between %s and %s\n", upper.c_str(),
                   lower.c_str());
      return 1;
    }
    efeu::monitor::MonitorSpec spec =
        efeu::monitor::MonitorSpec::FromSystem(compilation->system(), down, up);
    if (options.sym && down != nullptr) {
      // Drop range contracts the symbolic pass proved the software side can
      // never violate. Down direction only: up-direction bounds exist to
      // catch hardware faults, which no software-side proof rules out.
      std::vector<efeu::monitor::ProvenWordFact> facts;
      for (const efeu::ir::Module& module : compilation->modules()) {
        int port = module.FindPort(down, /*is_send=*/true);
        if (port < 0) {
          continue;
        }
        for (const efeu::analysis::sym::ModuleSummary& m : sym_summary.modules) {
          if (m.layer != module.layer_name) {
            continue;
          }
          for (const efeu::analysis::sym::PortFacts& pf : m.send_facts) {
            if (pf.port != port) {
              continue;
            }
            for (size_t w = 0; w < pf.words.size(); ++w) {
              const efeu::analysis::sym::SymVal& v = pf.words[w];
              efeu::monitor::ProvenWordFact fact;
              fact.word = static_cast<int>(w);
              fact.min = v.HasSet() ? v.values.front() : v.interval.lo;
              fact.max = v.HasSet() ? v.values.back() : v.interval.hi;
              fact.assumed = v.assumed;
              facts.push_back(fact);
            }
          }
        }
      }
      efeu::monitor::ApplyStaticDischarge(compilation->system(), down, facts, &spec.down);
      int dropped = static_cast<int>(spec.down.bounds.size()) - spec.down.ActiveBounds();
      std::fprintf(stderr, "esmc: monitor: %d of %zu down bound(s) statically discharged\n",
                   dropped, spec.down.bounds.size());
    }
    const std::string name = upper + "_" + lower;
    EmitFile(options, name + "_shadow.c",
             efeu::codegen::GenerateShadowCheckerC(spec, name));
    EmitFile(options, "efeu_bus_watcher.v", efeu::codegen::GenerateVerilogBusWatcher());
  } else if (options.emit == "ir") {
    for (const efeu::ir::Module& module : compilation->modules()) {
      EmitFile(options, module.layer_name + ".ir", efeu::ir::DumpModule(module));
    }
  } else {
    std::fprintf(stderr, "esmc: unknown --emit '%s'\n", options.emit.c_str());
    return 2;
  }
  return 0;
}
