#include "monitor/subscription.h"

#include <optional>

#include "core/buld.h"
#include "gtest/gtest.h"
#include "simulator/change_simulator.h"
#include "simulator/doc_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "xml/path.h"

namespace xydiff {
namespace {

/// Runs a diff between the two documents and evaluates the alerter over
/// the result.
std::vector<Alert> DiffAndEvaluate(Alerter* alerter, std::string_view old_xml,
                                   std::string_view new_xml) {
  XmlDocument old_doc = MustParse(old_xml);
  old_doc.AssignInitialXids();
  XmlDocument new_doc = MustParse(new_xml);
  Result<Delta> delta = XyDiff(&old_doc, &new_doc);
  EXPECT_TRUE(delta.ok());
  return alerter->Evaluate(*delta, old_doc, new_doc);
}

constexpr std::string_view kCatalogOld =
    "<Category><Title>Cameras</Title>"
    "<NewProducts><Product><Name>zy456</Name><Price>$799</Price></Product>"
    "</NewProducts></Category>";

TEST(AlerterTest, NewProductSubscriptionFires) {
  // The paper's motivating subscription: "a new product has been added
  // to a catalog" (§2).
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("new-products",
                                 "/Category/NewProducts/Product",
                                 ChangeKind::kInsert));
  const auto alerts = DiffAndEvaluate(
      &alerter, kCatalogOld,
      "<Category><Title>Cameras</Title>"
      "<NewProducts><Product><Name>zy456</Name><Price>$799</Price></Product>"
      "<Product><Name>abc</Name><Price>$899</Price></Product>"
      "</NewProducts></Category>");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].subscription_id, "new-products");
  EXPECT_EQ(alerts[0].kind, ChangeKind::kInsert);
  EXPECT_NE(alerts[0].detail.find("Product"), std::string::npos);
}

TEST(AlerterTest, NoAlertWhenNothingRelevantChanges) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("new-products",
                                 "/Category/NewProducts/Product",
                                 ChangeKind::kInsert));
  const auto alerts = DiffAndEvaluate(
      &alerter, kCatalogOld,
      "<Category><Title>Video Cameras</Title>"
      "<NewProducts><Product><Name>zy456</Name><Price>$799</Price></Product>"
      "</NewProducts></Category>");
  EXPECT_TRUE(alerts.empty());
}

TEST(AlerterTest, UpdateSubscriptionSeesPriceChange) {
  Alerter alerter;
  XY_ASSERT_OK(
      alerter.Subscribe("price-watch", "//Price", ChangeKind::kUpdate));
  const auto alerts = DiffAndEvaluate(
      &alerter, kCatalogOld,
      "<Category><Title>Cameras</Title>"
      "<NewProducts><Product><Name>zy456</Name><Price>$699</Price></Product>"
      "</NewProducts></Category>");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, ChangeKind::kUpdate);
  EXPECT_NE(alerts[0].detail.find("$799"), std::string::npos);
  EXPECT_NE(alerts[0].detail.find("$699"), std::string::npos);
}

TEST(AlerterTest, DeleteSubscription) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("gone", "//Product", ChangeKind::kDelete));
  const auto alerts = DiffAndEvaluate(
      &alerter, kCatalogOld,
      "<Category><Title>Cameras</Title><NewProducts/></Category>");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, ChangeKind::kDelete);
}

TEST(AlerterTest, KindlessSubscriptionSeesEverything) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("all", "//Product"));
  const auto alerts = DiffAndEvaluate(
      &alerter, kCatalogOld,
      "<Category><Title>Cameras</Title>"
      "<NewProducts><Product><Name>zy456</Name><Price>$1</Price></Product>"
      "<Product><Name>n</Name></Product></NewProducts></Category>");
  // One insert (new product) + one update (price, reported against its
  // Price parent -> not /Product... the update fires on <Price>).
  bool saw_insert = false;
  for (const Alert& alert : alerts) {
    if (alert.kind == ChangeKind::kInsert) saw_insert = true;
  }
  EXPECT_TRUE(saw_insert);
}

TEST(AlerterTest, MoveSubscription) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("moves", "//Product", ChangeKind::kMove));
  const auto alerts = DiffAndEvaluate(
      &alerter,
      "<Category><Discount/><NewProducts><Product><Name>zy456</Name>"
      "<Price>$799</Price></Product></NewProducts></Category>",
      "<Category><Discount><Product><Name>zy456</Name>"
      "<Price>$799</Price></Product></Discount><NewProducts/></Category>");
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, ChangeKind::kMove);
}

TEST(AlerterTest, AttributeSubscription) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("attrs", "//Product[@status='sale']",
                                 ChangeKind::kAttribute));
  const auto alerts = DiffAndEvaluate(
      &alerter,
      "<Category><Product status=\"full\"><Name>a</Name></Product>"
      "</Category>",
      "<Category><Product status=\"sale\"><Name>a</Name></Product>"
      "</Category>");
  // The predicate is evaluated against the new version, where status is
  // already "sale".
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, ChangeKind::kAttribute);
}

TEST(AlerterTest, SubscribeValidation) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("one", "//x"));
  EXPECT_EQ(alerter.Subscribe("one", "//y").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alerter.Subscribe("two", "not-a-path").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(alerter.subscription_count(), 1u);
}

TEST(AlerterTest, Unsubscribe) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("x", "//x"));
  EXPECT_TRUE(alerter.Unsubscribe("x"));
  EXPECT_FALSE(alerter.Unsubscribe("x"));
  EXPECT_EQ(alerter.subscription_count(), 0u);
}

TEST(AlerterTest, ContentFilterOnInsertedElement) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("zy-watch", "//Product", ChangeKind::kInsert,
                                 "zy456"));
  // Inserting a product named "abc" does not fire; inserting zy456 does.
  const auto miss = DiffAndEvaluate(
      &alerter, "<cat><Product><Name>old</Name></Product></cat>",
      "<cat><Product><Name>old</Name></Product>"
      "<Product><Name>abc</Name></Product></cat>");
  EXPECT_TRUE(miss.empty());
  const auto hit = DiffAndEvaluate(
      &alerter, "<cat><Product><Name>old</Name></Product></cat>",
      "<cat><Product><Name>old</Name></Product>"
      "<Product><Name>zy456</Name></Product></cat>");
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_NE(hit[0].detail.find("zy456"), std::string::npos);
}

TEST(AlerterTest, ContentFilterOnUpdateValue) {
  Alerter alerter;
  XY_ASSERT_OK(alerter.Subscribe("big-price", "//Price", ChangeKind::kUpdate,
                                 "$999"));
  const auto miss = DiffAndEvaluate(
      &alerter, "<r><Price>$10</Price></r>", "<r><Price>$20</Price></r>");
  EXPECT_TRUE(miss.empty());
  const auto hit = DiffAndEvaluate(
      &alerter, "<r><Price>$10</Price></r>", "<r><Price>$999</Price></r>");
  EXPECT_EQ(hit.size(), 1u);
}

// --- Equivalence with an eager reference evaluation --------------------

struct ReferenceSubscription {
  std::string id;
  std::string path;
  std::optional<ChangeKind> kind;
  std::string detail_contains;
};

/// Every element's description, from a walk of its whole subtree.
std::string ReferenceDescribe(const XmlNode& node) {
  std::string out = "<" + std::string(node.label()) + ">";
  const XmlNode* hint = nullptr;
  node.Visit([&](const XmlNode* n) {
    if (hint == nullptr && n->is_text()) hint = n;
  });
  if (hint != nullptr) {
    out += " '" + std::string(hint->text().substr(0, 48)) + "'";
  }
  return out;
}

/// The alerter's rules applied eagerly: a detail string is built for
/// every subscription at every changed element, then filtered.
std::vector<Alert> ReferenceAlerts(
    const std::vector<ReferenceSubscription>& subscriptions,
    const Delta& delta, XmlDocument* old_doc, XmlDocument* new_doc) {
  const auto old_index = old_doc->BuildXidIndex();
  const auto new_index = new_doc->BuildXidIndex();
  const auto find = [](const auto& index, Xid xid) -> const XmlNode* {
    auto it = index.find(xid);
    return it == index.end() ? nullptr : it->second;
  };
  const auto owning_element = [](const XmlNode* n) {
    while (n != nullptr && !n->is_element()) n = n->parent();
    return n;
  };
  std::vector<Alert> alerts;
  const auto fire = [&](ChangeKind kind, const XmlNode& node,
                        const std::string& detail) {
    for (const ReferenceSubscription& sub : subscriptions) {
      const XmlPath path = *XmlPath::Parse(sub.path);
      if (sub.kind.has_value() && *sub.kind != kind) continue;
      if (!path.Matches(node)) continue;
      if (!sub.detail_contains.empty() &&
          detail.find(sub.detail_contains) == std::string::npos) {
        continue;
      }
      alerts.push_back(Alert{sub.id, kind, node.xid(), detail});
    }
  };
  for (const InsertOp& op : delta.inserts()) {
    find(new_index, op.xid)->Visit([&](const XmlNode* n) {
      if (n->is_element()) {
        fire(ChangeKind::kInsert, *n, "inserted " + ReferenceDescribe(*n));
      }
    });
  }
  for (const DeleteOp& op : delta.deletes()) {
    find(old_index, op.xid)->Visit([&](const XmlNode* n) {
      if (n->is_element()) {
        fire(ChangeKind::kDelete, *n, "deleted " + ReferenceDescribe(*n));
      }
    });
  }
  for (const UpdateOp& op : delta.updates()) {
    const XmlNode* element = owning_element(find(new_index, op.xid));
    fire(ChangeKind::kUpdate, *element,
         "text of <" + std::string(element->label()) + "> changed from '" +
             op.old_value + "' to '" + op.new_value + "'");
  }
  for (const MoveOp& op : delta.moves()) {
    const XmlNode* element = owning_element(find(new_index, op.xid));
    fire(ChangeKind::kMove, *element,
         "moved <" + std::string(element->label()) + ">");
  }
  for (const AttributeOp& op : delta.attribute_ops()) {
    const XmlNode* element = find(new_index, op.element_xid);
    fire(ChangeKind::kAttribute, *element,
         "attribute '" + op.name + "' of <" + std::string(element->label()) +
             "> changed");
  }
  return alerts;
}

TEST(AlerterTest, SimulatorCorpusAlertsMatchTheEagerReference) {
  const std::vector<ReferenceSubscription> subscriptions = {
      {"all", "//*", std::nullopt, ""},
      {"inserts", "//*", ChangeKind::kInsert, ""},
      {"deep-deletes", "/*/*//*", ChangeKind::kDelete, ""},
      {"updates", "//*", ChangeKind::kUpdate, ""},
      {"moves", "//*", ChangeKind::kMove, ""},
      {"content-e", "//*", std::nullopt, "e"},
      {"content-none", "//*", ChangeKind::kInsert, "no such text"},
      {"top", "/*", std::nullopt, ""},
  };
  Alerter alerter;
  for (const ReferenceSubscription& sub : subscriptions) {
    XY_ASSERT_OK(alerter.Subscribe(sub.id, sub.path, sub.kind,
                                   sub.detail_contains));
  }
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    DocGenOptions gen;
    gen.target_bytes = 1024 * seed;
    XmlDocument old_doc = GenerateDocument(&rng, gen);
    old_doc.AssignInitialXids();
    Result<SimulatedChange> change =
        SimulateChanges(old_doc, ChangeSimOptions{}, &rng);
    ASSERT_TRUE(change.ok());
    XmlDocument new_doc = std::move(change->new_version);
    Result<Delta> delta = XyDiff(&old_doc, &new_doc);
    ASSERT_TRUE(delta.ok());
    const std::vector<Alert> got = alerter.Evaluate(*delta, old_doc, new_doc);
    const std::vector<Alert> want =
        ReferenceAlerts(subscriptions, *delta, &old_doc, &new_doc);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].subscription_id, want[i].subscription_id);
      EXPECT_EQ(got[i].kind, want[i].kind);
      EXPECT_EQ(got[i].xid, want[i].xid);
      EXPECT_EQ(got[i].detail, want[i].detail);
    }
    compared += got.size();
  }
  EXPECT_GT(compared, 1000u);
}

TEST(AlerterTest, ChangeKindNames) {
  EXPECT_STREQ(ChangeKindName(ChangeKind::kInsert), "insert");
  EXPECT_STREQ(ChangeKindName(ChangeKind::kDelete), "delete");
  EXPECT_STREQ(ChangeKindName(ChangeKind::kUpdate), "update");
  EXPECT_STREQ(ChangeKindName(ChangeKind::kMove), "move");
  EXPECT_STREQ(ChangeKindName(ChangeKind::kAttribute), "attribute");
}

}  // namespace
}  // namespace xydiff
