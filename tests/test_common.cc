/**
 * @file
 * Unit tests for the common utilities: bit manipulation, the table
 * printer, the deterministic RNG, and the observability subsystem
 * (stats registry, JSON writer/parser, interval sampler).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/sampler.hh"
#include "obs/stats_registry.hh"

using namespace arl;

TEST(Bits, ExtractAndInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 0, 4), 0xfu);
    EXPECT_EQ(bits(0xdeadbeef, 28, 4), 0xdu);
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xffffffff, 0, 32), 0xffffffffu);

    std::uint32_t word = 0;
    word = insertBits(word, 26, 6, 0x3f);
    EXPECT_EQ(word, 0xfc000000u);
    word = insertBits(word, 0, 16, 0x1234);
    EXPECT_EQ(word, 0xfc001234u);
    // Overwide fields are masked.
    word = insertBits(0, 0, 4, 0xff);
    EXPECT_EQ(word, 0xfu);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x7fff, 16), 32767);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x1, 1), -1);
    EXPECT_EQ(signExtend(0x0, 1), 0);
}

TEST(Bits, PowersAndRounding)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(32768));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(32768), 15u);
    EXPECT_EQ(floorLog2(32769), 15u);
    EXPECT_EQ(roundUp(13, 8), 16u);
    EXPECT_EQ(roundUp(16, 8), 16u);
    EXPECT_EQ(roundDown(13, 8), 8u);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter table;
    table.header({"name", "value"});
    table.row({"x", "1"});
    table.row({"longer_name", "22"});
    std::string out = table.render();
    EXPECT_NE(out.find("longer_name"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    // Each line has the value column starting at the same offset.
    auto first_line_end = out.find('\n');
    ASSERT_NE(first_line_end, std::string::npos);
}

TEST(TablePrinter, Formatters)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::meanSd(1.5, 0.25), "1.50 (0.25)");
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 10; ++i)
        differs |= (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ZeroSeedIsNotDegenerate)
{
    Rng rng(0);
    EXPECT_NE(rng.next(), 0u);
}

TEST(StatsRegistry, RegisterLookupAndKinds)
{
    obs::StatsRegistry reg;
    std::uint64_t hits = 7;
    double rate = 0.5;
    reg.addCounter("cache.hits", &hits, "hits");
    reg.addGauge("cache.rate", &rate);
    reg.addFormula("cache.double_hits",
                   [&] { return 2.0 * static_cast<double>(hits); });
    reg.counter("owned.count") = 3;

    using Snapshot = obs::StatsRegistry::Snapshot;
    EXPECT_EQ(reg.snapshot(), (Snapshot{{"cache.double_hits", 14.0},
                                        {"cache.hits", 7.0},
                                        {"cache.rate", 0.5},
                                        {"owned.count", 3.0}}));
    hits = 9;  // live pointer: updates flow through
    EXPECT_EQ(reg.snapshot(), (Snapshot{{"cache.double_hits", 18.0},
                                        {"cache.hits", 9.0},
                                        {"cache.rate", 0.5},
                                        {"owned.count", 3.0}}));
    EXPECT_EQ(reg.description("cache.hits"), "hits");

    // counter() is idempotent: same name, same storage.
    reg.counter("owned.count") += 2;
    EXPECT_EQ(reg.snapshot().back(),
              (Snapshot::value_type{"owned.count", 5.0}));
}

TEST(StatsRegistry, DuplicateRegistrationIsFatal)
{
    obs::StatsRegistry reg;
    std::uint64_t v = 0;
    reg.addCounter("dup", &v);
    EXPECT_EXIT(reg.addCounter("dup", &v),
                testing::ExitedWithCode(1), "duplicate stat");
}

TEST(StatsRegistry, SnapshotIsSortedAndDeterministic)
{
    auto build = [](obs::StatsRegistry &reg, std::uint64_t *storage) {
        // Registered out of order on purpose.
        reg.addCounter("z.last", storage);
        reg.addCounter("a.first", storage + 1);
        reg.addCounter("m.middle", storage + 2);
    };
    std::uint64_t values[3] = {1, 2, 3};
    obs::StatsRegistry first, second;
    build(first, values);
    build(second, values);

    auto snapshot = first.snapshot();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot[0].first, "a.first");
    EXPECT_EQ(snapshot[1].first, "m.middle");
    EXPECT_EQ(snapshot[2].first, "z.last");
    EXPECT_EQ(snapshot, second.snapshot());
}

TEST(Json, EscapeSpecials)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::jsonEscape("line\nfeed\ttab"),
              "line\\nfeed\\ttab");
    EXPECT_EQ(obs::jsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(obs::jsonNumber(3.0), "3");
    EXPECT_EQ(obs::jsonNumber(-42.0), "-42");
    EXPECT_EQ(obs::jsonNumber(0.5), "0.5");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(obs::jsonNumber(HUGE_VAL), "null");
}

TEST(Json, WriterParserRoundTrip)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("name", "quote\" and \\ backslash");
    w.field("count", std::uint64_t{12345});
    w.field("ratio", 0.25);
    w.field("flag", true);
    w.key("items").beginArray();
    w.value(1).value(2).value(3);
    w.endArray();
    w.key("nothing").null();
    w.endObject();
    ASSERT_TRUE(w.complete());

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(os.str(), doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->string, "quote\" and \\ backslash");
    EXPECT_EQ(doc.find("count")->number, 12345.0);
    EXPECT_EQ(doc.find("ratio")->number, 0.25);
    EXPECT_TRUE(doc.find("flag")->boolean);
    ASSERT_TRUE(doc.find("items")->isArray());
    EXPECT_EQ(doc.find("items")->array.size(), 3u);
    EXPECT_TRUE(doc.find("nothing")->isNull());
}

TEST(Json, ParserRejectsGarbage)
{
    obs::JsonValue doc;
    EXPECT_FALSE(obs::jsonParse("{", doc));
    EXPECT_FALSE(obs::jsonParse("{} trailing", doc));
    EXPECT_FALSE(obs::jsonParse("{'single': 1}", doc));
    std::string error;
    EXPECT_FALSE(obs::jsonParse("[1, 2,]", doc, &error));
    EXPECT_FALSE(error.empty());
}

TEST(IntervalSampler, SamplesAtBoundariesWithDeltas)
{
    obs::StatsRegistry reg;
    std::uint64_t work = 10;  // nonzero before baseline capture
    reg.addCounter("work", &work);
    obs::IntervalSampler sampler(reg, 100);
    const obs::IntervalReport &rows = sampler.rows();
    EXPECT_EQ(rows.every, 100u);
    ASSERT_EQ(rows.names.size(), 1u);
    EXPECT_EQ(sampler.row().values[0], 10.0);  // the baseline

    sampler.tick(50);  // below the first boundary: no sample
    EXPECT_TRUE(rows.samples.empty());

    work = 40;
    sampler.tick(100);  // first boundary
    work = 75;
    sampler.tick(199);  // still inside the second interval
    sampler.tick(230);  // crosses 200
    ASSERT_EQ(rows.samples.size(), 2u);
    EXPECT_EQ(rows.samples[0].at, 100u);
    EXPECT_EQ(rows.samples[0].values[0], 40.0);
    EXPECT_EQ(rows.samples[1].at, 230u);
    EXPECT_EQ(rows.samples[1].values[0], 75.0);

    const auto &deltas = rows.deltas;
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_EQ(deltas[0].values[0], 30.0);  // 40 - baseline 10
    EXPECT_EQ(deltas[1].values[0], 35.0);  // 75 - 40
}

TEST(IntervalSampler, IgnoresStatsRegisteredAfterConstruction)
{
    obs::StatsRegistry reg;
    std::uint64_t a = 0;
    reg.addCounter("a", &a);
    obs::IntervalSampler sampler(reg, 10);
    std::uint64_t b = 0;
    reg.addCounter("b", &b);  // not in the frozen name set
    sampler.tick(10);
    ASSERT_EQ(sampler.rows().samples.size(), 1u);
    EXPECT_EQ(sampler.rows().samples[0].values.size(), 1u);
}

TEST(Report, JsonDocumentParsesAndCarriesSchema)
{
    obs::Report report;
    report.command = "test";
    obs::RunRecord run;
    run.workload = "wl";
    run.config = "(2+0)";
    run.stats.emplace_back("ooo.cycles", 1000.0);
    run.stats.emplace_back("ooo.ipc", 1.5);
    report.runs.push_back(run);

    std::ostringstream os;
    report.writeJson(os);
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(os.str(), doc, &error)) << error;
    EXPECT_EQ(doc.find("schema_version")->number, 1.0);
    EXPECT_EQ(doc.find("tool")->string, "arl_sim");
    const obs::JsonValue &first = doc.find("runs")->array.at(0);
    EXPECT_EQ(first.find("stats")->find("ooo.cycles")->number, 1000.0);

    std::ostringstream csv;
    report.writeCsv(csv);
    EXPECT_NE(csv.str().find("workload,config,stat,value"),
              std::string::npos);
    EXPECT_NE(csv.str().find("wl,(2+0),ooo.cycles,1000"),
              std::string::npos);
}
