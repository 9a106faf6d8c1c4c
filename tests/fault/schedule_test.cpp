// FaultSchedule: the spec grammar, the seeded chaos generator, and the
// reproducibility guarantees both share — same input, same schedule, with a
// canonical string form that round-trips exactly (what the CLI prints so a
// --fault-seed run can be rerun as --fault-spec).
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dist/backend.hpp"
#include "fault/schedule.hpp"

namespace {

using lrb::InvalidArgumentError;
using lrb::fault::FaultEvent;
using lrb::fault::FaultKind;
using lrb::fault::FaultSchedule;

TEST(FaultSchedule, EmptySpecIsEmptySchedule) {
  EXPECT_TRUE(FaultSchedule::parse("").empty());
  EXPECT_TRUE(FaultSchedule().empty());
  EXPECT_EQ(FaultSchedule::parse("").str(), "");
}

TEST(FaultSchedule, ParsesKillEvent) {
  const FaultSchedule schedule = FaultSchedule::parse("kill@7:rank=2");
  ASSERT_EQ(schedule.size(), 1u);
  const FaultEvent& event = schedule.events()[0];
  EXPECT_EQ(event.kind, FaultKind::kKillRank);
  EXPECT_EQ(event.at, 7u);
  EXPECT_EQ(event.rank, 2u);
}

TEST(FaultSchedule, ParsesTransientArguments) {
  const FaultSchedule schedule =
      FaultSchedule::parse("drop@3:times=2,rounds=1;delay@9");
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule.events()[0].kind, FaultKind::kDropMessage);
  EXPECT_EQ(schedule.events()[0].at, 3u);
  EXPECT_EQ(schedule.events()[0].times, 2u);
  EXPECT_EQ(schedule.events()[0].rounds_wasted, 1u);
  EXPECT_EQ(schedule.events()[1].kind, FaultKind::kDelayExchange);
  EXPECT_EQ(schedule.events()[1].times, 1u);   // default
  EXPECT_EQ(schedule.events()[1].rounds_wasted, 0u);  // default
}

TEST(FaultSchedule, EventsAreSortedByPosition) {
  const FaultSchedule schedule =
      FaultSchedule::parse("delay@9;kill@2:rank=0;drop@5");
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule.events()[0].at, 2u);
  EXPECT_EQ(schedule.events()[1].at, 5u);
  EXPECT_EQ(schedule.events()[2].at, 9u);
}

TEST(FaultSchedule, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultSchedule::parse("kill7:rank=1"),
               InvalidArgumentError);  // missing '@'
  EXPECT_THROW((void)FaultSchedule::parse("explode@3"), InvalidArgumentError);
  EXPECT_THROW((void)FaultSchedule::parse("kill@3"),
               InvalidArgumentError);  // kill needs rank=
  EXPECT_THROW((void)FaultSchedule::parse("drop@x"), InvalidArgumentError);
  EXPECT_THROW((void)FaultSchedule::parse("drop@3:times=0"),
               InvalidArgumentError);
  EXPECT_THROW((void)FaultSchedule::parse("drop@3:bogus=1"),
               InvalidArgumentError);
  EXPECT_THROW((void)FaultSchedule::parse("drop@3:times"),
               InvalidArgumentError);  // missing '='
}

/// Catches the typed error and returns its isolated token.
std::string offending_token(const std::string& spec) {
  try {
    (void)FaultSchedule::parse(spec);
  } catch (const lrb::FaultSpecError& e) {
    return e.token();
  }
  ADD_FAILURE() << "spec \"" << spec << "\" did not throw FaultSpecError";
  return {};
}

TEST(FaultSchedule, ParseErrorsAreTypedFaultSpecErrors) {
  // FaultSpecError refines InvalidArgumentError (callers catching the base
  // keep working) and isolates the offending token for chaos-sweep logs.
  EXPECT_THROW((void)FaultSchedule::parse("explode@3"),
               lrb::FaultSpecError);
  EXPECT_THROW((void)FaultSchedule::parse("explode@3"), InvalidArgumentError);
}

TEST(FaultSchedule, ParseErrorsNameTheOffendingToken) {
  EXPECT_EQ(offending_token("explode@3"), "explode");  // unknown verb
  EXPECT_EQ(offending_token("kill7:rank=1"), "kill7:rank=1");  // missing '@'
  EXPECT_EQ(offending_token("drop@"), "drop@");        // missing @position
  EXPECT_EQ(offending_token("kill@:rank=1"), "kill@:rank=1");
  EXPECT_EQ(offending_token("drop@x"), "x");           // non-numeric position
  EXPECT_EQ(offending_token("drop@3:times=many"), "many");  // non-numeric kv
  EXPECT_EQ(offending_token("drop@3:times"), "times"); // missing '='
  EXPECT_EQ(offending_token("drop@3:bogus=1"), "bogus");  // unknown argument
  EXPECT_EQ(offending_token("kill@3"), "kill@3");      // kill without rank=
  EXPECT_EQ(offending_token("drop@3:times=0"), "drop@3:times=0");
  // Only the bad event of a multi-event spec is named.
  EXPECT_EQ(offending_token("drop@3;explode@5;delay@9"), "explode");
}

TEST(FaultSchedule, ParseErrorMessageQuotesSpecAndToken) {
  try {
    (void)FaultSchedule::parse("drop@3;explode@5");
    FAIL() << "expected FaultSpecError";
  } catch (const lrb::FaultSpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("drop@3;explode@5"), std::string::npos)
        << "message must quote the whole spec: " << what;
    EXPECT_NE(what.find("explode"), std::string::npos)
        << "message must quote the offending token: " << what;
    EXPECT_EQ(e.token(), "explode");
  }
}

TEST(FaultSchedule, CanonicalStringRoundTrips) {
  const char* specs[] = {
      "kill@7:rank=2",
      "drop@3:times=2,rounds=1",
      "delay@0:times=1",
      "kill@2:rank=0;drop@5:times=1;delay@9:times=2",
  };
  for (const char* spec : specs) {
    const FaultSchedule schedule = FaultSchedule::parse(spec);
    EXPECT_EQ(FaultSchedule::parse(schedule.str()), schedule) << spec;
  }
}

TEST(FaultSchedule, RandomIsDeterministicInTheSeed) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const FaultSchedule a = FaultSchedule::random(seed, 8, 100);
    const FaultSchedule b = FaultSchedule::random(seed, 8, 100);
    EXPECT_EQ(a, b) << "seed " << seed;
    // And round-trips through its own canonical spec, so any seeded chaos
    // run can be replayed from --fault-spec.
    EXPECT_EQ(FaultSchedule::parse(a.str()), a) << "seed " << seed;
  }
}

TEST(FaultSchedule, RandomSeedsDiffer) {
  // Not a tautology (two seeds could collide), but across 8 seeds at least
  // two distinct schedules must appear or the generator is broken.
  bool any_difference = false;
  const FaultSchedule first = FaultSchedule::random(0, 8, 100);
  for (std::uint64_t seed = 1; seed < 8; ++seed) {
    if (FaultSchedule::random(seed, 8, 100) != first) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultSchedule, RandomRespectsHorizonAndRanks) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const FaultSchedule schedule = FaultSchedule::random(seed, 4, 50);
    EXPECT_GE(schedule.size(), 1u);
    for (const FaultEvent& event : schedule.events()) {
      EXPECT_LT(event.at, 50u);
      if (event.kind == FaultKind::kKillRank) {
        EXPECT_LT(event.rank, 4u);
      } else {
        EXPECT_GE(event.times, 1u);
        EXPECT_LE(event.times, 2u);
      }
    }
  }
}

TEST(FaultSchedule, RandomIsSurvivableUnderTheDefaultRetryBudget) {
  // Transients sharing one exchange position stack their failed attempts;
  // the generator must keep each position's total below the default
  // RetryPolicy's max_attempts, or a chaos sweep's exit-0 contract breaks
  // on an unlucky seed (which would make seeded CI sweeps flaky-by-seed).
  const std::uint32_t budget = lrb::dist::RetryPolicy{}.max_attempts - 1;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    const FaultSchedule schedule = FaultSchedule::random(seed, 8, 20);
    std::map<std::uint64_t, std::uint32_t> attempts;
    for (const FaultEvent& event : schedule.events()) {
      if (event.kind == FaultKind::kKillRank) continue;
      attempts[event.at] += event.times;
    }
    for (const auto& [at, times] : attempts) {
      EXPECT_LE(times, budget) << "seed " << seed << " at " << at;
    }
  }
}

TEST(FaultSchedule, RandomNeverKillsTheOnlyRank) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const FaultSchedule schedule = FaultSchedule::random(seed, 1, 50);
    for (const FaultEvent& event : schedule.events()) {
      EXPECT_NE(event.kind, FaultKind::kKillRank) << "seed " << seed;
    }
  }
}

}  // namespace
