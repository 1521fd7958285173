#include "util/json.h"

#include <gtest/gtest.h>

namespace linuxfp::util {
namespace {

TEST(Json, BuildsObjectsWithInsertionOrder) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = "two";
  j["mid"] = true;
  std::vector<std::string> keys;
  for (const auto& [k, v] : j.object_items()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"zeta", "alpha", "mid"}));
}

TEST(Json, DumpCompact) {
  Json j = Json::object();
  j["name"] = "router";
  j["count"] = 50;
  j["enabled"] = true;
  j["gw"] = nullptr;
  EXPECT_EQ(j.dump(),
            "{\"name\": \"router\", \"count\": 50, \"enabled\": true, "
            "\"gw\": null}");
}

TEST(Json, RoundTripsThroughParse) {
  // Nested objects and a mixed array dump in insertion order.
  Json j = Json::object();
  j["device"] = "ens1f0";
  j["nodes"]["bridge"]["conf"]["STP_enabled"] = true;
  j["nodes"]["bridge"]["next_nf"] = "router";
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(false);
  arr.push_back(-2.5);
  j["list"] = arr;
  j["text"] = "x\ny\"";

  EXPECT_EQ(j.dump(),
            "{\"device\": \"ens1f0\", \"nodes\": {\"bridge\": {\"conf\": "
            "{\"STP_enabled\": true}, \"next_nf\": \"router\"}}, \"list\": "
            "[1, \"two\", false, -2.5], \"text\": \"x\\ny\\\"\"}");
}

TEST(Json, MissingKeyLookupsReturnNull) {
  Json j = Json::object();
  j["present"] = 5;
  EXPECT_TRUE(j.at("absent").is_null());
  EXPECT_EQ(j.at("absent").as_int(42), 42);
  EXPECT_FALSE(j.contains("absent"));
  EXPECT_TRUE(j.contains("present"));
}

TEST(Json, EqualityIsOrderSensitiveForObjects) {
  Json a = Json::object();
  a["x"] = 1;
  a["y"] = 2;
  Json b = Json::object();
  b["y"] = 2;
  b["x"] = 1;
  EXPECT_FALSE(a == b);  // processing-graph keys are ordered FPM stages
}

TEST(Json, IndentedDumpParsesBack) {
  Json j = Json::object();
  j["a"]["b"] = 1;
  j["c"] = Json::array();
  j["c"].push_back("s");
  j["e"] = Json::array();
  EXPECT_EQ(j.dump(2),
            "{\n"
            "  \"a\": {\n"
            "    \"b\": 1\n"
            "  },\n"
            "  \"c\": [\n"
            "    \"s\"\n"
            "  ],\n"
            "  \"e\": []\n"
            "}");
}

}  // namespace
}  // namespace linuxfp::util
