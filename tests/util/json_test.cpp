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

// --- Pinned writer output and value semantics ------------------------------
//
// Signatures are dumps compared as strings (TopologyManager::signature), so
// the writer's exact bytes are part of the controller's change detection:
// these cases must print the same text whatever the value model is.

TEST(Json, DumpEscapesControlCharactersAndTheFiveEscapes) {
  const std::string s = std::string("q\"b\\n\nt\tr\r") + '\x01' + "e" +
                        '\x1f' + "\x7f" + "\xc3\xa9";
  EXPECT_EQ(Json(s).dump(),
            "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001e\\u001f\x7f\xc3\xa9\"");
  Json o = Json::object();
  o["k\"ey\n"] = "";
  EXPECT_EQ(o.dump(), "{\"k\\\"ey\\n\": \"\"}");
  EXPECT_EQ(Json(std::string(1, '\0')).dump(), "\"\\u0000\"");
  EXPECT_EQ(Json("plain run of text").dump(), "\"plain run of text\"");
}

TEST(Json, DumpIntegersAndFractions) {
  EXPECT_EQ(Json(0).dump(), "0");
  EXPECT_EQ(Json(-0.0).dump(), "0");
  EXPECT_EQ(Json(-42).dump(), "-42");
  EXPECT_EQ(Json(-(std::int64_t{1} << 40)).dump(), "-1099511627776");
  EXPECT_EQ(Json(999999999999999.0).dump(), "999999999999999");
  EXPECT_EQ(Json(-999999999999999.0).dump(), "-999999999999999");
  // From 1e15 on, integral doubles take the %.17g path.
  EXPECT_EQ(Json(1e15).dump(), "1000000000000000");
  EXPECT_EQ(Json(-1e15).dump(), "-1000000000000000");
  EXPECT_EQ(Json(std::int64_t{1} << 53).dump(), "9007199254740992");
  EXPECT_EQ(Json(-(std::int64_t{1} << 53)).dump(), "-9007199254740992");
  EXPECT_EQ(Json(std::uint64_t{1} << 63).dump(), "9.2233720368547758e+18");
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Json(-2.5).dump(), "-2.5");
  EXPECT_EQ(Json(1e-7).dump(), "9.9999999999999995e-08");
  EXPECT_EQ(Json(1e300).dump(), "1.0000000000000001e+300");
  EXPECT_EQ(Json(4294967295u + std::uint64_t{0}).dump(), "4294967295");
}

TEST(Json, DumpEmptyAndNestedContainersCompactAndIndented) {
  EXPECT_EQ(Json::object().dump(), "{}");
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json::object().dump(2), "{}");
  EXPECT_EQ(Json::array().dump(2), "[]");

  Json j = Json::array();
  j.push_back(Json::array());
  j.push_back(Json::object());
  Json inner = Json::object();
  inner["a"] = Json::array();
  inner["a"].push_back(nullptr);
  inner["a"].push_back(Json::object());
  inner["b"] = "s";
  j.push_back(inner);
  EXPECT_EQ(j.dump(), "[[], {}, {\"a\": [null, {}], \"b\": \"s\"}]");
  EXPECT_EQ(j.dump(2),
            "[\n"
            "  [],\n"
            "  {},\n"
            "  {\n"
            "    \"a\": [\n"
            "      null,\n"
            "      {}\n"
            "    ],\n"
            "    \"b\": \"s\"\n"
            "  }\n"
            "]");
  EXPECT_EQ(j.dump(0),
            "[\n[],\n{},\n{\n\"a\": [\nnull,\n{}\n],\n\"b\": \"s\"\n}\n]");
}

TEST(Json, CopyIsDeep) {
  Json src = Json::object();
  src["a"]["b"] = 1;
  src["list"] = Json::array();
  src["list"].push_back("x");
  const std::string before = src.dump();

  Json copy = src;
  copy["a"]["b"] = 2;
  copy["list"].push_back("y");
  copy["new"] = true;
  EXPECT_EQ(src.dump(), before);
  EXPECT_EQ(src.at("a").at("b").as_int(), 1);
  EXPECT_EQ(src.at("list").size(), 1u);

  Json assigned;
  assigned = src;
  assigned["a"] = "replaced";
  EXPECT_EQ(src.dump(), before);

  Json arr = Json::array();
  arr.push_back(src);
  src["a"]["b"] = 3;
  EXPECT_EQ(arr.at(0).dump(), before);
}

TEST(Json, CopiedAndMovedToValuesEqualTheirSource) {
  Json src = Json::object();
  src["device"] = "eth0";
  src["ifindex"] = 2;
  src["nodes"]["router"]["conf"]["local_addrs"] = Json::array();
  src["nodes"]["router"]["conf"]["local_addrs"].push_back("10.0.0.1");
  src["nodes"]["router"]["next_nf"] = nullptr;
  src["ratio"] = 0.25;
  src["on"] = false;

  const Json copy = src;
  EXPECT_TRUE(copy == src);
  EXPECT_EQ(copy.dump(), src.dump());

  Json tmp = src;
  const Json moved = std::move(tmp);
  EXPECT_TRUE(moved == src);
  EXPECT_EQ(moved.dump(), src.dump());

  Json tmp2 = src;
  Json move_assigned = 7;
  move_assigned = std::move(tmp2);
  EXPECT_TRUE(move_assigned == src);

  for (const Json& v : {Json(), Json(true), Json(1.5), Json("s"),
                        Json::array(), Json::object()}) {
    Json c = v;
    EXPECT_TRUE(c == v) << v.dump();
    Json m = std::move(c);
    EXPECT_TRUE(m == v) << v.dump();
    EXPECT_EQ(m.type(), v.type());
  }
  EXPECT_FALSE(Json(1) == Json("1"));
  EXPECT_FALSE(Json::array() == Json::object());
  EXPECT_FALSE(Json() == Json(false));
  EXPECT_TRUE(Json(1) == Json(1.0));
}

TEST(Json, WrongKindAccessorsReturnNullOrEmpty) {
  const Json number = 5;
  const Json str = "text";
  const Json arr = [] {
    Json a = Json::array();
    a.push_back(1);
    return a;
  }();
  const Json obj = [] {
    Json o = Json::object();
    o["k"] = "v";
    return o;
  }();
  const Json null;

  for (const Json* j : {&number, &str, &arr, &null}) {
    EXPECT_TRUE(j->at("k").is_null()) << j->dump();
    EXPECT_FALSE(j->contains("k")) << j->dump();
    EXPECT_TRUE(j->object_items().empty()) << j->dump();
  }
  for (const Json* j : {&number, &str, &obj, &null}) {
    EXPECT_TRUE(j->at(0).is_null()) << j->dump();
    EXPECT_TRUE(j->array_items().empty()) << j->dump();
  }
  for (const Json* j : {&number, &arr, &obj, &null}) {
    EXPECT_EQ(j->as_string(), "") << j->dump();
  }
  EXPECT_TRUE(arr.at(1).is_null());
  EXPECT_EQ(number.size(), 0u);
  EXPECT_EQ(str.size(), 0u);
  EXPECT_EQ(null.size(), 0u);
  EXPECT_EQ(str.as_int(9), 9);
  EXPECT_EQ(str.as_number(1.5), 1.5);
  EXPECT_TRUE(number.as_bool(true));
  EXPECT_EQ(Json(true).as_int(4), 4);
  EXPECT_EQ(number.as_int(), 5);
  EXPECT_EQ(str.as_string(), "text");
  EXPECT_EQ(arr.array_items().size(), 1u);
  EXPECT_EQ(obj.object_items().size(), 1u);

  // A value that changed kind keeps no trace of its old payload.
  Json changed = "old";
  changed = 3;
  EXPECT_EQ(changed.as_string(), "");
  changed = Json::array();
  EXPECT_TRUE(changed.object_items().empty());
}

TEST(Json, NullBecomesAContainerOnFirstUse) {
  Json o;
  o["k"] = 1;
  EXPECT_TRUE(o.is_object());
  EXPECT_EQ(o.dump(), "{\"k\": 1}");
  Json a;
  a.push_back(1);
  EXPECT_TRUE(a.is_array());
  EXPECT_EQ(a.dump(), "[1]");
  // operator[] on an existing key assigns in place, keeping its position.
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = 2;
  j["a"] = "x";
  EXPECT_EQ(j.dump(), "{\"a\": \"x\", \"b\": 2}");
}

}  // namespace
}  // namespace linuxfp::util
