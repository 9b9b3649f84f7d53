// Reproduces Table 3: precision / recall / F1 of the distant-supervision
// baseline, Snorkel's generative stage, Snorkel's discriminative stage, and
// the hand-supervision skyline on the four relation extraction tasks.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "util/table_printer.h"

int main() {
  using namespace snorkel;
  TablePrinter table({"Task", "DS P", "DS R", "DS F1", "Gen P", "Gen R",
                      "Gen F1", "Lift", "Disc P", "Disc R", "Disc F1", "Lift",
                      "Hand F1"});
  // "Task Gen -> Disc F1" per task, split by whether Disc beats Gen.
  std::string lifted;
  std::string not_lifted;
  for (auto& task : bench::MakeRelationTasks()) {
    if (!task.ok()) continue;
    auto report = RunRelationPipeline(*task, bench::StandardPipelineOptions());
    if (!report.ok()) {
      std::printf("%s failed: %s\n", task->name.c_str(),
                  report.status().ToString().c_str());
      continue;
    }
    const auto& r = *report;
    table.AddRow({r.task_name,
                  TablePrinter::Cell(bench::Pct(r.ds_test.Precision()), 1),
                  TablePrinter::Cell(bench::Pct(r.ds_test.Recall()), 1),
                  TablePrinter::Cell(bench::Pct(r.ds_test.F1()), 1),
                  TablePrinter::Cell(bench::Pct(r.gen_test.Precision()), 1),
                  TablePrinter::Cell(bench::Pct(r.gen_test.Recall()), 1),
                  TablePrinter::Cell(bench::Pct(r.gen_test.F1()), 1),
                  TablePrinter::Cell(
                      bench::Pct(r.gen_test.F1() - r.ds_test.F1()), 1),
                  TablePrinter::Cell(bench::Pct(r.disc_test.Precision()), 1),
                  TablePrinter::Cell(bench::Pct(r.disc_test.Recall()), 1),
                  TablePrinter::Cell(bench::Pct(r.disc_test.F1()), 1),
                  TablePrinter::Cell(
                      bench::Pct(r.disc_test.F1() - r.ds_test.F1()), 1),
                  TablePrinter::Cell(bench::Pct(r.hand_test.F1()), 1)});
    char entry[96];
    std::snprintf(entry, sizeof(entry), "%s %.1f -> %.1f", r.task_name.c_str(),
                  bench::Pct(r.gen_test.F1()), bench::Pct(r.disc_test.F1()));
    std::string& list = r.disc_test.F1() > r.gen_test.F1() ? lifted : not_lifted;
    list += (list.empty() ? "" : ", ") + std::string(entry);
  }
  std::printf(
      "Table 3: relation extraction (DS baseline vs Snorkel Gen vs Snorkel "
      "Disc vs hand supervision)\n"
      "(paper F1: Chem 17.6/33.8/54.1/- | EHR 72.2/74.9/81.4/- | CDR "
      "29.4/38.5/45.3/47.3 | Spouses 15.4/57.4/54.2/54.2)\n\n%s\n",
      table.ToString().c_str());
  if (!lifted.empty()) {
    std::printf(
        "Key shape (paper: on Chem, EHR and CDR): the discriminative stage "
        "lifts F1 over the generative stage; Gen -> Disc F1: %s.\n",
        lifted.c_str());
  }
  if (!not_lifted.empty()) {
    std::printf("No discriminative lift; Gen -> Disc F1: %s.\n",
                not_lifted.c_str());
  }
  return 0;
}
