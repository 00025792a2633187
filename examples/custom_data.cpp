// Bring-your-own-data: load a transaction file in the whitespace text
// format (one basket per line, integer item ids — the same format SPMF and
// Borgelt's tools use), mine it, and write the frequent itemsets out.
//
//   ./custom_data <input.txt> [--support=0.05] [--out=frequent.txt]
//
// With no input file a small demo file is created and used.
#include <cstdio>
#include <fstream>

#include "api/mining.hpp"
#include "common/flags.hpp"
#include "data/io.hpp"

namespace {

std::string make_demo_file() {
  // Nine baskets over items {0..5}: {0,1} and {0,1,2} are clearly frequent.
  const char* contents =
      "0 1 2\n0 1\n0 1 2 4\n3 5\n0 1 2\n1 2\n0 1 5\n0 1 2 3\n2 4\n";
  const std::string path = "/tmp/eclat_demo_baskets.txt";
  std::ofstream file(path);
  file << contents;
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const eclat::Flags flags(argc, argv);

  const std::string input = flags.positional().empty()
                                ? make_demo_file()
                                : flags.positional().front();
  eclat::HorizontalDatabase db;
  try {
    db = eclat::read_text_file(input);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "failed to read %s: %s\n", input.c_str(),
                 error.what());
    return 1;
  }
  std::printf("loaded %zu transactions over %u items from %s\n", db.size(),
              db.num_items(), input.c_str());

  eclat::api::MineOptions options;
  options.min_support = flags.get_double("support", 0.05);
  const eclat::MiningResult result = eclat::api::mine(db, options);
  std::printf("%zu frequent itemsets at support >= %.1f%%\n",
              result.itemsets.size(), options.min_support * 100.0);

  const std::string out_path = flags.get("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    for (const eclat::ItemsetView f : result.itemsets) {
      for (std::size_t i = 0; i < f.items.size(); ++i) {
        out << (i ? " " : "") << f.items[i];
      }
      out << " #SUP: " << f.support << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    for (const eclat::ItemsetView f : result.itemsets) {
      std::printf("  %s  support %llu\n", eclat::to_string(f.items).c_str(),
                  static_cast<unsigned long long>(f.support));
    }
  }
  return 0;
}
