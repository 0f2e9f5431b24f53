#include "workloads/bio.hpp"

#include <cstdio>

namespace drai::workloads {

namespace {
const char* kFirstNames[] = {"Ada",  "Grace", "Alan",  "Edsger", "Barbara",
                             "John", "Mary",  "Edith", "Donald", "Radia"};
const char* kLastNames[] = {"Lovelace", "Hopper",   "Turing", "Dijkstra",
                            "Liskov",   "Backus",   "Shaw",   "Clarke",
                            "Knuth",    "Perlman"};
const char* kDiagnoses[] = {"I10", "E11", "J45", "M54", "F41", "K21"};

std::string RandomDna(Rng& rng, size_t len, double n_prob) {
  static const char kBases[] = "ACGT";
  std::string s(len, 'A');
  for (char& c : s) {
    c = rng.Bernoulli(n_prob) ? 'N' : kBases[rng.UniformU64(4)];
  }
  return s;
}
}  // namespace

BioWorkload GenerateBioWorkload(const BioConfig& config) {
  Rng rng(config.seed);
  BioWorkload out;
  out.clinical.columns = {"patient_name", "ssn",       "dob",
                          "zip",          "sex",       "age",
                          "admit_date",   "diagnosis", "subject_id"};
  for (size_t i = 0; i < config.n_subjects; ++i) {
    BioSubject subj;
    char id[32];
    std::snprintf(id, sizeof(id), "SUBJ-%05zu", i);
    subj.subject_id = id;
    subj.sequence =
        RandomDna(rng, config.sequence_length, config.n_dropout_prob);
    const bool has_motif = rng.Bernoulli(config.motif_prob);
    if (has_motif && config.motif.size() < subj.sequence.size()) {
      const size_t pos = static_cast<size_t>(
          rng.UniformU64(subj.sequence.size() - config.motif.size()));
      subj.sequence.replace(pos, config.motif.size(), config.motif);
    }
    subj.expression_label = has_motif ? 1 : 0;
    if (rng.Bernoulli(config.unlabeled_fraction)) subj.expression_label = -1;

    // Clinical row with PHI.
    const std::string name =
        std::string(kFirstNames[rng.UniformU64(10)]) + " " +
        kLastNames[rng.UniformU64(10)];
    // Buffers fit any int in each field, so -Wformat-truncation has nothing
    // to report; the generated values are far shorter.
    char ssn[36];
    std::snprintf(ssn, sizeof(ssn), "%03d-%02d-%04d",
                  static_cast<int>(rng.UniformU64(900)) + 100,
                  static_cast<int>(rng.UniformU64(99)) + 1,
                  static_cast<int>(rng.UniformU64(10000)));
    const int age = static_cast<int>(rng.UniformInt(20, 90));
    char dob[36];
    std::snprintf(dob, sizeof(dob), "%04d-%02d-%02d", 2024 - age,
                  static_cast<int>(rng.UniformInt(1, 12)),
                  static_cast<int>(rng.UniformInt(1, 28)));
    char admit[36];
    std::snprintf(admit, sizeof(admit), "%04d-%02d-%02d", 2024,
                  static_cast<int>(rng.UniformInt(1, 12)),
                  static_cast<int>(rng.UniformInt(1, 28)));
    char zip[12];
    std::snprintf(zip, sizeof(zip), "%05d",
                  37800 + static_cast<int>(rng.UniformU64(40)));
    out.clinical.rows.push_back({name, ssn, dob, zip,
                                 rng.Bernoulli(0.5) ? "F" : "M",
                                 std::to_string(age), admit,
                                 kDiagnoses[rng.UniformU64(6)],
                                 subj.subject_id});
    out.subjects.push_back(std::move(subj));
  }
  return out;
}

}  // namespace drai::workloads
