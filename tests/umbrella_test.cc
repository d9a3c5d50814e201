// Compile-time guarantee that the umbrella header stays self-contained and
// the advertised entry points exist.
#include "oak.h"

#include <gtest/gtest.h>

TEST(Umbrella, PublicApiIsReachable) {
  oak::page::WebUniverse web(oak::net::NetworkConfig{.seed = 1});
  oak::net::ServerId origin = web.network().add_server({});
  web.dns().bind("umbrella.test", web.network().server(origin).addr());

  oak::core::OakServer server(web, "umbrella.test", {});
  server.add_rules(oak::core::parse_rules(
      R"(rule "r" { type: 2 default: "a.net" alt: "b.net" })"));
  EXPECT_EQ(server.rules().size(), 1u);

  oak::core::SiteAnalytics audit(server);
  EXPECT_EQ(audit.summary().rules, 1u);

  oak::core::PolicyReplayer replayer(server.rules(), {});
  EXPECT_EQ(replayer.score().reports, 0u);

  oak::browser::Browser user(web, web.network().add_client({}));
  EXPECT_EQ(user.client(), 0u);

  oak::util::Cdf cdf;
  cdf.add(1.0);
  EXPECT_EQ(cdf.size(), 1u);
}
