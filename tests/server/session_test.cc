// The browsing trail (Sec 4.1: "examine the neighborhood of a fact,
// pick a fact from this neighborhood, examine its neighborhood, and so
// on") as the visit/back/forward verbs of a ServerSession. Each
// response opens with the breadcrumbs, the current entity bracketed.
#include <gtest/gtest.h>

#include "server/session.h"
#include "workload/music_domain.h"

namespace lsd {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_
                    .Commit([](LooseDb& db) {
                      workload::BuildMusicDomain(&db);
                      return Status::OK();
                    })
                    .ok());
  }

  // The breadcrumb line a trail verb answers with, or its error.
  std::string Crumbs(const std::string& line) {
    auto out = session_.Execute(line);
    if (!out.ok()) return "! " + out.status().ToString();
    return out->substr(0, out->find('\n'));
  }
  StatusCode Code(const std::string& line) {
    return session_.Execute(line).status().code();
  }

  SharedStore store_;
  ServerSession session_{1, &store_};
};

TEST_F(SessionTest, VisitBackForward) {
  EXPECT_EQ(Crumbs("visit JOHN"), "[JOHN]");
  EXPECT_EQ(Crumbs("visit PC#9-WAM"), "JOHN > [PC#9-WAM]");
  EXPECT_EQ(Crumbs("visit MOZART"), "JOHN > PC#9-WAM > [MOZART]");
  EXPECT_EQ(Crumbs("back"), "JOHN > [PC#9-WAM] > MOZART");
  EXPECT_EQ(Crumbs("forward"), "JOHN > PC#9-WAM > [MOZART]");
  EXPECT_EQ(Code("forward"), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, VisitTruncatesForwardHistory) {
  ASSERT_EQ(Code("visit JOHN"), StatusCode::kOk);
  ASSERT_EQ(Code("visit PC#9-WAM"), StatusCode::kOk);
  ASSERT_EQ(Code("back"), StatusCode::kOk);
  EXPECT_EQ(Crumbs("visit FELIX"), "JOHN > [FELIX]");
  EXPECT_EQ(Code("forward"), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, ErrorsAtTheEnds) {
  EXPECT_EQ(Code("back"), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Code("forward"), StatusCode::kFailedPrecondition);
  ASSERT_EQ(Code("visit JOHN"), StatusCode::kOk);
  EXPECT_EQ(Code("back"), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Code("forward"), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, UnknownEntityDoesNotDisturbTrail) {
  ASSERT_EQ(Code("visit JOHN"), StatusCode::kOk);
  EXPECT_EQ(Code("visit NOBODY"), StatusCode::kNotFound);
  auto info = session_.Execute("session");
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->find("trail:     [JOHN]\n"), std::string::npos) << *info;
}

TEST_F(SessionTest, Breadcrumbs) {
  ASSERT_EQ(Code("visit JOHN"), StatusCode::kOk);
  ASSERT_EQ(Code("visit MOZART"), StatusCode::kOk);
  EXPECT_EQ(Crumbs("back"), "[JOHN] > MOZART");
}

TEST_F(SessionTest, VisitedNeighborhoodMatchesNavigate) {
  auto visited = session_.Execute("visit JOHN");
  auto navigated = session_.Execute("nav JOHN");
  ASSERT_TRUE(visited.ok());
  ASSERT_TRUE(navigated.ok());
  EXPECT_EQ(visited->substr(visited->find('\n') + 1), *navigated);
}

}  // namespace
}  // namespace lsd
