// Tests for drai/privacy: field classification, pseudonymization, date
// shifting, k-anonymity, l-diversity, and the hash-chained audit log.
#include <gtest/gtest.h>

#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "privacy/anonymize.hpp"
#include "privacy/audit.hpp"
#include "privacy/tabular.hpp"
#include "largest_new.hpp"

namespace drai::privacy {
namespace {

Table MakeClinicalTable(size_t rows, uint64_t seed = 5) {
  Rng rng(seed);
  Table t;
  t.columns = {"patient_name", "ssn", "age", "zip", "diagnosis", "subject_id",
               "admit_date"};
  for (size_t i = 0; i < rows; ++i) {
    char ssn[40], zip[16], date[24];
    std::snprintf(ssn, sizeof(ssn), "%03d-%02d-%04d",
                  int(rng.UniformU64(900)) + 100, int(rng.UniformU64(99)) + 1,
                  int(rng.UniformU64(10000)));
    std::snprintf(zip, sizeof(zip), "%05d", 37800 + int(rng.UniformU64(20)));
    std::snprintf(date, sizeof(date), "2024-%02d-%02d",
                  int(rng.UniformInt(1, 12)), int(rng.UniformInt(1, 28)));
    t.rows.push_back({"Person " + std::to_string(i), ssn,
                      std::to_string(rng.UniformInt(20, 80)), zip,
                      rng.Bernoulli(0.5) ? "E11" : "I10",
                      "SUBJ-" + std::to_string(i), date});
  }
  return t;
}

// ---- classification -----------------------------------------------------

TEST(ClassifyField, ByColumnName) {
  EXPECT_EQ(ClassifyField("ssn", {}), FieldClass::kDirectIdentifier);
  EXPECT_EQ(ClassifyField("patient_name", {}), FieldClass::kDirectIdentifier);
  EXPECT_EQ(ClassifyField("email_address", {}), FieldClass::kDirectIdentifier);
  EXPECT_EQ(ClassifyField("age", {}), FieldClass::kQuasiIdentifier);
  EXPECT_EQ(ClassifyField("zip_code", {}), FieldClass::kQuasiIdentifier);
  EXPECT_EQ(ClassifyField("date_of_birth", {}), FieldClass::kQuasiIdentifier);
  EXPECT_EQ(ClassifyField("diagnosis_icd10", {}), FieldClass::kSensitive);
  EXPECT_EQ(ClassifyField("widget_count", {}), FieldClass::kOther);
}

TEST(ClassifyField, ByValueShapeWhenNameIsOpaque) {
  const std::vector<std::string> ssns = {"123-45-6789", "987-65-4321",
                                         "111-22-3333"};
  EXPECT_EQ(ClassifyField("col_a", ssns), FieldClass::kDirectIdentifier);
  const std::vector<std::string> emails = {"a@b.com", "x@y.org", "q@r.net"};
  EXPECT_EQ(ClassifyField("col_b", emails), FieldClass::kDirectIdentifier);
  const std::vector<std::string> dates = {"2020-01-02", "2021-11-30",
                                          "1999-12-31"};
  EXPECT_EQ(ClassifyField("col_c", dates), FieldClass::kQuasiIdentifier);
  const std::vector<std::string> plain = {"alpha", "beta", "gamma"};
  EXPECT_EQ(ClassifyField("col_d", plain), FieldClass::kOther);
}

TEST(ValueMatchers, Shapes) {
  EXPECT_TRUE(LooksLikeSsn("123-45-6789"));
  EXPECT_FALSE(LooksLikeSsn("123-456-789"));
  EXPECT_FALSE(LooksLikeSsn("abc-de-fghi"));
  EXPECT_TRUE(LooksLikeEmail("user@host.tld"));
  EXPECT_FALSE(LooksLikeEmail("no-at-sign"));
  EXPECT_TRUE(LooksLikePhone("(865) 555-0192"));
  EXPECT_FALSE(LooksLikePhone("call me"));
  EXPECT_TRUE(LooksLikeIsoDate("2024-06-09"));
  EXPECT_FALSE(LooksLikeIsoDate("06/09/2024"));
}

// ---- pseudonymizer ---------------------------------------------------------

TEST(Pseudonymizer, StableAndKeyDependent) {
  const Pseudonymizer a("0123456789abcdef");
  const Pseudonymizer b("fedcba9876543210");
  EXPECT_EQ(a.Token("SUBJ-1"), a.Token("SUBJ-1"));    // stable (joins work)
  EXPECT_NE(a.Token("SUBJ-1"), a.Token("SUBJ-2"));    // injective-ish
  EXPECT_NE(a.Token("SUBJ-1"), b.Token("SUBJ-1"));    // key-dependent
  EXPECT_EQ(a.Token("SUBJ-1").rfind("anon-", 0), 0u); // prefixed
}

TEST(Pseudonymizer, ShortKeyRejected) {
  EXPECT_THROW(Pseudonymizer("short"), std::invalid_argument);
}

TEST(Pseudonymizer, ColumnReplacedNoOriginalsRemain) {
  Table t = MakeClinicalTable(20);
  const Pseudonymizer pseudo("0123456789abcdef");
  ASSERT_TRUE(pseudo.PseudonymizeColumn(t, "patient_name").ok());
  for (const auto& row : t.rows) {
    EXPECT_EQ(row[0].rfind("anon-", 0), 0u);
    EXPECT_EQ(row[0].find("Person"), std::string::npos);
  }
  EXPECT_EQ(pseudo.PseudonymizeColumn(t, "ghost").code(),
            StatusCode::kNotFound);
}

// ---- date shifter -----------------------------------------------------------

TEST(DateShifter, CivilDateMathRoundTrip) {
  for (const char* date : {"1970-01-01", "2000-02-29", "2024-12-31",
                           "1999-03-01", "2100-06-15"}) {
    const auto days = DateShifter::IsoToDays(date);
    ASSERT_TRUE(days.ok()) << date;
    EXPECT_EQ(DateShifter::DaysToIso(*days), date);
  }
  EXPECT_EQ(DateShifter::IsoToDays("1970-01-01").value(), 0);
  EXPECT_EQ(DateShifter::IsoToDays("1970-01-02").value(), 1);
  EXPECT_EQ(DateShifter::IsoToDays("1969-12-31").value(), -1);
}

TEST(DateShifter, YearsOfAnyWidthPrintInFull) {
  // 400 Gregorian years are exactly 146097 days, so whole cycles move the
  // year and keep month and day.
  const int64_t y2000 = DateShifter::IsoToDays("2000-03-15").value();
  EXPECT_EQ(DateShifter::DaysToIso(y2000 + 146097 * 25), "12000-03-15");
  EXPECT_EQ(DateShifter::DaysToIso(y2000 + 146097 * 2500000000LL),
            "1000000002000-03-15");
  EXPECT_EQ(DateShifter::DaysToIso(y2000 - 146097 * 2500000000LL),
            "-999999998000-03-15");
}

TEST(DateShifter, RejectsMalformedDates) {
  EXPECT_FALSE(DateShifter::IsoToDays("2024-13-01").ok());
  EXPECT_FALSE(DateShifter::IsoToDays("2024-00-10").ok());
  EXPECT_FALSE(DateShifter::IsoToDays("not-a-date!").ok());
}

TEST(DateShifter, IntervalPreservingPerSubject) {
  const DateShifter shifter("0123456789abcdef", 365);
  // Two events of the same subject keep their spacing.
  const auto a = shifter.Shift("SUBJ-9", "2024-01-10").value();
  const auto b = shifter.Shift("SUBJ-9", "2024-01-25").value();
  EXPECT_EQ(DateShifter::IsoToDays(b).value() -
                DateShifter::IsoToDays(a).value(),
            15);
  // The shift is bounded.
  const int64_t shift = DateShifter::IsoToDays(a).value() -
                        DateShifter::IsoToDays("2024-01-10").value();
  EXPECT_LE(std::abs(shift), 365);
  // Different subjects shift differently (overwhelmingly likely).
  const auto other = shifter.Shift("SUBJ-10", "2024-01-10").value();
  EXPECT_NE(a, other);
}

TEST(DateShifter, ShiftColumnTouchesAllRows) {
  Table t = MakeClinicalTable(15);
  Table original = t;
  const DateShifter shifter("0123456789abcdef");
  ASSERT_TRUE(shifter.ShiftColumn(t, "subject_id", "admit_date").ok());
  const int date_col = t.ColumnIndex("admit_date");
  size_t changed = 0;
  for (size_t i = 0; i < t.rows.size(); ++i) {
    ASSERT_TRUE(LooksLikeIsoDate(t.rows[i][size_t(date_col)]));
    if (t.rows[i][size_t(date_col)] != original.rows[i][size_t(date_col)]) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 10u);  // a zero shift is possible but rare
}

// ---- k-anonymity -------------------------------------------------------------

class KAnonymityK : public ::testing::TestWithParam<size_t> {};

TEST_P(KAnonymityK, AchievesRequestedK) {
  Table t = MakeClinicalTable(300, 17);
  KAnonymityConfig config;
  config.k = GetParam();
  config.numeric_bands["age"] = 5;
  config.prefix_lengths["zip"] = 4;
  const auto report = EnforceKAnonymity(t, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  if (!t.rows.empty()) {
    EXPECT_GE(report->k_achieved, GetParam());
    const auto min_class = MinClassSize(t, {"age", "zip"});
    ASSERT_TRUE(min_class.ok());
    EXPECT_GE(*min_class, GetParam());
  }
  // Suppression is the escape hatch, not the norm.
  EXPECT_LT(report->suppressed_rows, 300u / 2);
}

INSTANTIATE_TEST_SUITE_P(Ks, KAnonymityK, ::testing::Values(2, 5, 10, 25));

TEST(KAnonymity, GeneralizationFormatsValues) {
  Table t;
  t.columns = {"age", "zip"};
  for (int i = 0; i < 40; ++i) {
    t.rows.push_back({std::to_string(30 + i % 4), "3783" + std::to_string(i % 2)});
  }
  KAnonymityConfig config;
  config.k = 10;
  config.numeric_bands["age"] = 5;
  config.prefix_lengths["zip"] = 3;
  const auto report = EnforceKAnonymity(t, config);
  ASSERT_TRUE(report.ok());
  // Ages now look like "30-34"; zips like "378**".
  EXPECT_NE(t.rows[0][0].find('-'), std::string::npos);
  for (const auto& row : t.rows) {
    EXPECT_EQ(row[1].substr(0, 3), "378");
  }
}

TEST(KAnonymity, ConfigValidation) {
  Table t = MakeClinicalTable(10);
  KAnonymityConfig config;
  config.k = 0;
  config.numeric_bands["age"] = 5;
  EXPECT_FALSE(EnforceKAnonymity(t, config).ok());
  config.k = 2;
  config.numeric_bands.clear();
  EXPECT_FALSE(EnforceKAnonymity(t, config).ok());  // no quasi identifiers
  config.numeric_bands["nonexistent"] = 5;
  EXPECT_EQ(EnforceKAnonymity(t, config).status().code(),
            StatusCode::kNotFound);
}

TEST(LDiversity, DetectsHomogeneousClasses) {
  Table t;
  t.columns = {"age", "diagnosis"};
  // Class "20": two distinct diagnoses. Class "30": all identical.
  t.rows = {{"20", "A"}, {"20", "B"}, {"20", "A"},
            {"30", "C"}, {"30", "C"}, {"30", "C"}};
  EXPECT_EQ(MinDiversity(t, {"age"}, "diagnosis").value(), 1u);
  t.rows.push_back({"30", "D"});
  EXPECT_EQ(MinDiversity(t, {"age"}, "diagnosis").value(), 2u);
}

// ---- audit log --------------------------------------------------------------

TEST(AuditLog, ChainVerifies) {
  AuditLog log;
  log.Append("pipeline", "pseudonymize", "column=ssn");
  log.Append("pipeline", "k-anonymize", "k=5");
  log.Append("operator", "export", "records=100");
  EXPECT_TRUE(log.Verify().ok());
  EXPECT_EQ(log.size(), 3u);
  EXPECT_FALSE(log.HeadHash().empty());
  EXPECT_EQ(log.entries()[1].prev_hash_hex, log.entries()[0].hash_hex);
}

TEST(AuditLog, SerializeRoundTripPreservesChain) {
  AuditLog log;
  log.Append("a", "b", "c");
  log.Append("d", "e", "f");
  const auto back = AuditLog::Parse(log.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(back->HeadHash(), log.HeadHash());
  EXPECT_TRUE(back->Verify().ok());
}

TEST(AuditLog, TamperingDetectedOnParse) {
  AuditLog log;
  log.Append("pipeline", "pseudonymize", "column=ssn");
  log.Append("pipeline", "export", "records=50");
  Bytes bytes = log.Serialize();
  // Flip a byte somewhere in the middle (an entry's content).
  bytes[bytes.size() / 2] ^= std::byte{0x04};
  EXPECT_EQ(AuditLog::Parse(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(AuditLog, EntryCountBeyondThePayloadIsDataLoss) {
  // The count sits at the 2^24 plausibility cap over no entries (a 12-byte
  // log), or over 1024 real entries whose chain ends early.
  for (const size_t real : {size_t{0}, size_t{1024}}) {
    ByteWriter w;
    w.PutMagic("AUD1");
    w.PutVarU64(uint64_t{1} << 24);
    for (size_t i = 0; i < real; ++i) {
      w.PutU64(i);
      for (int field = 0; field < 5; ++field) w.PutString("");
    }
    w.PutU32(Crc32(w.bytes()));
    const Bytes bytes = w.Take();

    g_largest_new = 0;
    StatusCode code = StatusCode::kOk;
    EXPECT_NO_THROW(code = AuditLog::Parse(bytes).status().code()) << real;
    EXPECT_EQ(code, StatusCode::kDataLoss) << real;
    EXPECT_LE(g_largest_new.load(), 32 * bytes.size() + (size_t{64} << 10))
        << real;
  }
}

TEST(AuditLog, EmptyLogIsValid) {
  AuditLog log;
  EXPECT_TRUE(log.Verify().ok());
  EXPECT_EQ(log.HeadHash(), "");
  const auto back = AuditLog::Parse(log.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

}  // namespace
}  // namespace drai::privacy
